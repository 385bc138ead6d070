package serve

import (
	"bytes"
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/feedback"
	"repro/internal/tenant"
)

// gatedBackend is the stub backend (fakeBackend) with a gate: the next
// Predict after gatedNext is armed blocks, holding a request's miss in
// flight with the model it resolved, until the test releases it.
type gatedBackend struct{ fakeBackend }

// gatedHold is one armed gate: held closes when a Predict parks on it,
// release lets that Predict finish.
type gatedHold struct{ held, release chan struct{} }

var gatedNext atomic.Pointer[gatedHold]

// armGate arms the gate for the next Predict. A test that fails while
// holding it still releases the request at cleanup, so the service's
// Close does not wait on it forever.
func armGate(t *testing.T) *gatedHold {
	h := &gatedHold{held: make(chan struct{}), release: make(chan struct{})}
	gatedNext.Store(h)
	t.Cleanup(func() {
		gatedNext.CompareAndSwap(h, nil)
		select {
		case <-h.release:
		default:
			close(h.release)
		}
	})
	return h
}

func (gatedBackend) Name() string { return "gated" }

func (b gatedBackend) Predict(m backend.Model, sc backend.Scenario) (backend.Prediction, error) {
	if h := gatedNext.Swap(nil); h != nil {
		close(h.held)
		<-h.release
	}
	return b.fakeBackend.Predict(m, sc)
}

func init() { backend.Register(gatedBackend{}) }

// TestRetiredModelAnswerNotCached: a PredictOn miss holding the live
// model while a Reload or a feedback promotion retires it still answers
// its own caller from that model, but the answer must not reach the
// response cache behind the retirement's sweep — the next PredictOn
// answers from the current model.
func TestRetiredModelAnswerNotCached(t *testing.T) {
	const current = 3e6 // the retiring model predicts 1e6 (fakeBackend.Train)
	for _, tc := range []struct {
		name   string
		retire func(t *testing.T, s *Service)
	}{
		{"reload", func(t *testing.T, s *Service) {
			// An operator pushes a new model file, then reloads.
			path := s.reg.modelPath(entryKey{"gated", "", "FlowStats"})
			if err := (gatedBackend{}).Save(fakeModel{Name: "FlowStats", PPS: current}, path); err != nil {
				t.Fatal(err)
			}
			s.Reload("gated", "FlowStats")
		}},
		{"promote", func(t *testing.T, s *Service) {
			k := feedback.Key{NF: "FlowStats", Backend: "gated"}
			if err := s.feedbackPromote(k, fakeModel{Name: "FlowStats", PPS: current}, 1); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewService(ServiceConfig{Registry: testRegistryConfig(t)})
			t.Cleanup(s.Close)
			if _, err := s.reg.Model("gated", "FlowStats"); err != nil {
				t.Fatal(err)
			}
			req := PredictRequest{NF: "FlowStats", Backend: "gated"}
			hold := armGate(t)
			type answer struct {
				resp PredictResponse
				err  error
			}
			held := make(chan answer, 1)
			go func() {
				resp, err := s.PredictOn(context.Background(), "", req)
				held <- answer{resp, err}
			}()
			<-hold.held
			tc.retire(t, s)
			close(hold.release)
			if a := <-held; a.err != nil || a.resp.SoloPPS != 1e6 {
				t.Fatalf("held request: %+v, %v; want the retiring model's answer", a.resp, a.err)
			}
			resp, err := s.PredictOn(context.Background(), "", req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.SoloPPS != current {
				t.Fatalf("after the retirement PredictOn answered %g, want the current model's %g", resp.SoloPPS, current)
			}
		})
	}
}

// TestQueueSignalCountsSlotWaiters: with the only compute slot held, a
// second miss waits for it, and both yala_queue_depth and the tenant
// gate's queue signal (waiters per slot, over queuePerWorker) read that
// backlog.
func TestQueueSignalCountsSlotWaiters(t *testing.T) {
	gate := tenant.NewGate(tenant.AnonymousOnly(), tenant.GateConfig{})
	s := NewService(ServiceConfig{Registry: testRegistryConfig(t), Workers: 1, Gate: gate})
	t.Cleanup(s.Close)
	if _, err := s.reg.Model("gated", "FlowStats"); err != nil {
		t.Fatal(err)
	}
	hold := armGate(t)
	done := make(chan error, 2)
	for _, flows := range []int{1000, 2000} {
		go func() {
			_, err := s.PredictOn(context.Background(), "", PredictRequest{NF: "FlowStats", Backend: "gated", Profile: ProfileSpec{Flows: flows}})
			done <- err
		}()
		if flows == 1000 {
			<-hold.held
		}
	}
	depth := func() string {
		var b bytes.Buffer
		if err := s.Obs().WriteProm(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "yala_queue_depth "); ok {
				return v
			}
		}
		return ""
	}
	for deadline := time.Now().Add(5 * time.Second); depth() != "1"; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("yala_queue_depth %q with one request waiting for the held slot, want 1", depth())
		}
	}
	// The gate caches its score for up to scoreTTL; a scrape may have
	// filled it before the waiter arrived.
	for deadline := time.Now().Add(5 * time.Second); gate.LoadScore() != 1.0/queuePerWorker; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("gate load score %g with one waiter on one slot, want %g", gate.LoadScore(), 1.0/queuePerWorker)
		}
	}
	close(hold.release)
	for range 2 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if d := depth(); d != "0" {
		t.Fatalf("yala_queue_depth %q after both requests finished, want 0", d)
	}
}
