package feedback

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
)

// stubModel is the minimal backend.Model for controller tests.
type stubModel struct{ nf string }

func (m stubModel) NF() string { return m.nf }

func obs(k Key, ratio float64, source string) Observation {
	return Observation{Key: k, Source: source, Measured: ratio * 1000, LivePred: 1000}
}

func TestEmptyWindowAndWarmup(t *testing.T) {
	c := New(Config{})
	defer c.Close()
	k := Key{NF: "FlowStats", Backend: "yala"}

	if _, ok := c.ShadowModel(k); ok {
		t.Fatal("ShadowModel reported a candidate for an empty controller")
	}
	res := c.Observe(obs(k, 1.0, ""))
	if !res.Accepted || res.Decision != DecisionWarmup {
		t.Fatalf("first observation: got %+v, want accepted warmup", res)
	}
	st := c.Stats()
	if st.Observations != 1 || st.Trips != 0 || st.Holds != 0 || st.Quarantined != 0 {
		t.Fatalf("stats after one sample: %+v", st)
	}
}

func TestInvalidObservationRejected(t *testing.T) {
	c := New(Config{})
	defer c.Close()
	k := Key{NF: "ACL", Backend: "yala"}
	for _, o := range []Observation{
		{Key: k, Measured: 0, LivePred: 1000},
		{Key: k, Measured: -5, LivePred: 1000},
		{Key: k, Measured: 1000, LivePred: 0},
	} {
		res := c.Observe(o)
		if res.Accepted || res.Decision != DecisionInvalid {
			t.Fatalf("invalid observation %+v: got %+v", o, res)
		}
	}
	if st := c.Stats(); st.Observations != 0 {
		t.Fatalf("invalid observations were counted: %+v", st)
	}
}

// TestOutlierBurstHolds: a burst of mutually inconsistent junk from
// many sources must never trip retraining — the gate quarantines the
// junk sources and holds while the trusted fraction is low.
func TestOutlierBurstHolds(t *testing.T) {
	trainCalls := 0
	c := New(Config{
		WindowSize:  64,
		Synchronous: true,
		Train: func(Key, float64) (backend.Model, error) {
			trainCalls++
			return stubModel{}, nil
		},
	})
	defer c.Close()
	k := Key{NF: "NAT", Backend: "yala"}

	for i := 0; i < 30; i++ {
		src := fmt.Sprintf("good-%d", i%3)
		if res := c.Observe(obs(k, 1.0, src)); res.Decision == DecisionDrift {
			t.Fatalf("clean sample %d tripped drift", i)
		}
	}
	junk := []float64{0.2, 3.0, 0.1, 4.0, 5.0, 0.05, 2.5, 6.0}
	for i := 0; i < 40; i++ {
		src := fmt.Sprintf("junk-%d", i%8)
		if res := c.Observe(obs(k, junk[i%len(junk)], src)); res.Decision == DecisionDrift {
			t.Fatalf("junk sample %d tripped drift", i)
		}
	}
	st := c.Stats()
	if st.Trips != 0 || trainCalls != 0 {
		t.Fatalf("outlier burst tripped retraining: %+v, trainCalls=%d", st, trainCalls)
	}
	if st.Holds == 0 && st.Quarantined == 0 {
		t.Fatalf("gate neither held nor quarantined during the burst: %+v", st)
	}
}

// TestBadSourceQuarantined: one consistently-wrong source among honest
// reporters is quarantined while the gate keeps reporting OK off the
// honest consensus; honest sources are never quarantined.
func TestBadSourceQuarantined(t *testing.T) {
	c := New(Config{WindowSize: 64})
	defer c.Close()
	k := Key{NF: "NIDS", Backend: "yala"}

	var evilQuarantined, goodOK bool
	jitter := []float64{0.99, 1.0, 1.01, 1.02, 0.98}
	for i := 0; i < 80; i++ {
		var res Result
		if i%4 == 3 {
			res = c.Observe(obs(k, 3.0, "evil"))
			if res.Quarantined {
				evilQuarantined = true
			}
		} else {
			res = c.Observe(obs(k, jitter[i%len(jitter)], fmt.Sprintf("good-%d", i%3)))
			if res.Quarantined {
				t.Fatalf("honest source quarantined at sample %d: %+v", i, res)
			}
			if res.Decision == DecisionOK {
				goodOK = true
			}
		}
		if res.Decision == DecisionDrift {
			t.Fatalf("bad source tripped drift at sample %d", i)
		}
	}
	if !evilQuarantined {
		t.Fatal("consistently-wrong source was never quarantined")
	}
	if !goodOK {
		t.Fatal("gate never reported OK off the honest consensus")
	}
	if st := c.Stats(); st.Quarantined == 0 || st.Trips != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSlowDriftTripsAndPromotes drives the full lifecycle in
// synchronous mode: genuine drift trips the gate, a candidate trains
// and shadows, ground-truth scoring promotes it, and the window resets.
func TestSlowDriftTripsAndPromotes(t *testing.T) {
	var trainCalls int
	var trainScale float64
	var promoted []backend.Model
	k := Key{NF: "FlowStats", Backend: "yala"}
	c := New(Config{
		WindowSize:        64,
		MinPromoteSamples: 5,
		Synchronous:       true,
		Train: func(gotK Key, scale float64) (backend.Model, error) {
			if gotK != k {
				return nil, errors.New("train called with wrong key")
			}
			trainCalls++
			trainScale = scale
			return stubModel{nf: k.NF}, nil
		},
		Promote: func(gotK Key, m backend.Model, _ float64) error {
			if gotK != k {
				return errors.New("promote called with wrong key")
			}
			promoted = append(promoted, m)
			return nil
		},
	})
	defer c.Close()

	for i := 0; i < 30; i++ {
		c.Observe(obs(k, 1.0, ""))
	}
	// Slow genuine shift: every measurement walks coherently to 0.7x
	// the live prediction, then stays there.
	ratio := 1.0
	for i := 0; i < 120 && trainCalls == 0; i++ {
		if ratio > 0.7 {
			ratio -= 0.01
		}
		c.Observe(obs(k, ratio, ""))
	}
	if trainCalls != 1 {
		t.Fatalf("genuine drift never tripped retraining (trainCalls=%d, stats=%+v)", trainCalls, c.Stats())
	}
	if trainScale >= 1 || trainScale < 0.5 {
		t.Fatalf("calibration scale %v, want ~0.7", trainScale)
	}
	sm, ok := c.ShadowModel(k)
	if !ok {
		t.Fatal("no shadow candidate after retrain")
	}
	if sm.NF() != k.NF {
		t.Fatalf("shadow model NF %q", sm.NF())
	}

	// Ground truth 700, live predicts 1000 (err 0.43), shadow predicts
	// 705 (err 0.007): the candidate must promote at MinPromoteSamples.
	for i := 0; i < 5; i++ {
		c.Observe(Observation{Key: k, Measured: 700, LivePred: 1000, ShadowPred: 705, HasShadow: true})
	}
	st := c.Stats()
	if st.Promotions != 1 || len(promoted) != 1 {
		t.Fatalf("candidate not promoted: %+v, promoted=%d", st, len(promoted))
	}
	if _, ok := c.ShadowModel(k); ok {
		t.Fatal("shadow candidate still active after promotion")
	}
	// Window reset: the next observation is back in warmup.
	if res := c.Observe(obs(k, 1.0, "")); res.Decision != DecisionWarmup {
		t.Fatalf("window not reset after promotion: %+v", res)
	}
	if trainCalls != 1 {
		t.Fatalf("unexpected extra retrains: %d", trainCalls)
	}
}

// TestShadowAbort: a candidate that never beats the live model is
// discarded, not promoted.
func TestShadowAbort(t *testing.T) {
	k := Key{NF: "ACL", Backend: "yala"}
	c := New(Config{
		WindowSize:        64,
		MinPromoteSamples: 3,
		Synchronous:       true,
		Train:             func(Key, float64) (backend.Model, error) { return stubModel{nf: k.NF}, nil },
		Promote:           func(Key, backend.Model, float64) error { return errors.New("must not be called") },
	})
	defer c.Close()

	for i := 0; i < 30; i++ {
		c.Observe(obs(k, 1.0, ""))
	}
	for i := 0; i < 64; i++ {
		c.Observe(obs(k, 0.7, ""))
	}
	if _, ok := c.ShadowModel(k); !ok {
		t.Fatalf("no shadow candidate after drift: %+v", c.Stats())
	}
	// Shadow is WORSE than live every sample; at 4x MinPromoteSamples
	// it must abort.
	for i := 0; i < 12; i++ {
		c.Observe(Observation{Key: k, Measured: 700, LivePred: 750, ShadowPred: 100, HasShadow: true})
	}
	st := c.Stats()
	if st.Promotions != 0 {
		t.Fatalf("losing candidate was promoted: %+v", st)
	}
	if st.ShadowAborts == 0 {
		t.Fatalf("losing candidate never aborted: %+v", st)
	}
}

// TestConcurrentHammer races ingest against background retraining,
// shadow reads, stats and reload resets — run under -race.
func TestConcurrentHammer(t *testing.T) {
	k := Key{NF: "FlowStats", Backend: "yala"}
	c := New(Config{
		WindowSize:        32,
		MinSamples:        8,
		MinPromoteSamples: 2,
		Train: func(Key, float64) (backend.Model, error) {
			time.Sleep(200 * time.Microsecond)
			return stubModel{nf: k.NF}, nil
		},
		Promote: func(Key, backend.Model, float64) error { return nil },
	})

	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ratio := 1.0 - float64(i%perWorker)/float64(2*perWorker) // walks 1.0 -> 0.5
				o := obs(k, ratio, fmt.Sprintf("src-%d", w))
				if sm, ok := c.ShadowModel(k); ok && sm != nil {
					o.ShadowPred = o.Measured * 1.01
					o.HasShadow = true
					c.RecordShadowCompare()
				}
				c.Observe(o)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			c.ShadowModel(k)
			if i%16 == 15 {
				c.Forget(func(got Key) bool { return got == k }) // a reload racing the loop
			}
			if st := c.Stats(); st.Observations >= workers*perWorker {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-done
	c.Close()
	c.Close() // idempotent

	if st := c.Stats(); st.Observations != workers*perWorker {
		t.Fatalf("lost observations: %+v", st)
	}
}

// TestRetrainsCompoundCalibration: the gate's ratio is measured against
// the live model, so after a promotion at factor 3 a second trip at
// ratio 2 trains at the product — clamped to the calibration ceiling.
func TestRetrainsCompoundCalibration(t *testing.T) {
	k := Key{NF: "FlowStats", Backend: "yala"}
	var trained, promoted []float64
	c := New(Config{
		WindowSize:        64,
		MinSamples:        8,
		MinPromoteSamples: 3,
		Synchronous:       true,
		Train: func(_ Key, scale float64) (backend.Model, error) {
			trained = append(trained, scale)
			return stubModel{nf: k.NF}, nil
		},
		Promote: func(_ Key, _ backend.Model, scale float64) error {
			promoted = append(promoted, scale)
			return nil
		},
	})
	defer c.Close()

	for i := 0; i < 8; i++ {
		c.Observe(obs(k, 3, ""))
	}
	for i := 0; i < 3; i++ {
		c.Observe(Observation{Key: k, Measured: 3000, LivePred: 1000, ShadowPred: 3000, HasShadow: true})
	}
	for i := 0; i < 8; i++ {
		c.Observe(obs(k, 2, ""))
	}
	if len(trained) != 2 || trained[0] != 3 || trained[1] != 4 {
		t.Fatalf("Train scales %v, want [3 4] (3 × 2 clamped to 4)", trained)
	}
	if len(promoted) != 1 || promoted[0] != 3 {
		t.Fatalf("Promote scales %v, want [3]", promoted)
	}
}

// TestForgetResetsKey: a reload's Forget drops the key's evidence and
// its calibration — the next sample is back in warmup, and the next
// trip trains from nominal hardware — while other keys keep theirs.
func TestForgetResetsKey(t *testing.T) {
	k := Key{NF: "FlowStats", Backend: "yala"}
	other := Key{NF: "ACL", Backend: "yala"}
	var trained []float64
	c := New(Config{
		WindowSize:        64,
		MinSamples:        8,
		MinPromoteSamples: 3,
		Synchronous:       true,
		Train: func(_ Key, scale float64) (backend.Model, error) {
			trained = append(trained, scale)
			return stubModel{nf: k.NF}, nil
		},
		Promote: func(Key, backend.Model, float64) error { return nil },
	})
	defer c.Close()

	// Promote a candidate at factor 2, then build up 7 samples of
	// evidence against it and 8 against an unrelated key.
	for i := 0; i < 8; i++ {
		c.Observe(obs(k, 2, ""))
	}
	for i := 0; i < 3; i++ {
		c.Observe(Observation{Key: k, Measured: 2000, LivePred: 1000, ShadowPred: 2000, HasShadow: true})
	}
	for i := 0; i < 7; i++ {
		c.Observe(obs(k, 1.5, ""))
	}
	for i := 0; i < 8; i++ {
		c.Observe(obs(other, 1, ""))
	}

	c.Forget(func(got Key) bool { return got == k })
	if res := c.Observe(obs(k, 1.5, "")); res.Decision != DecisionWarmup {
		t.Fatalf("evidence survived Forget: %+v", res)
	}
	if res := c.Observe(obs(other, 1, "")); res.Decision != DecisionOK {
		t.Fatalf("Forget reset an unmatched key: %+v", res)
	}
	for i := 0; i < 7; i++ {
		c.Observe(obs(k, 1.5, ""))
	}
	if len(trained) != 2 || trained[1] != 1.5 {
		t.Fatalf("Train scales %v, want the post-Forget trip at nominal × 1.5", trained)
	}
}

// TestForgetDiscardsInflightRetrain: a retrain still running when its
// key is forgotten trained for the retired model; when it lands it
// becomes neither a shadow nor a counted retrain.
func TestForgetDiscardsInflightRetrain(t *testing.T) {
	k := Key{NF: "FlowStats", Backend: "yala"}
	started, release := make(chan struct{}), make(chan struct{})
	c := New(Config{
		WindowSize: 64,
		MinSamples: 8,
		Train: func(Key, float64) (backend.Model, error) {
			close(started)
			<-release
			return stubModel{nf: k.NF}, nil
		},
	})
	for i := 0; i < 8; i++ {
		c.Observe(obs(k, 0.5, ""))
	}
	<-started
	c.Forget(func(Key) bool { return true })
	close(release)
	c.Close() // waits for the in-flight retrain to land

	if st := c.Stats(); st.Retrains != 0 || st.TrainFailures != 0 {
		t.Fatalf("discarded retrain was counted: %+v", st)
	}
	if _, ok := c.ShadowModel(k); ok {
		t.Fatal("discarded retrain became a shadow candidate")
	}
}
