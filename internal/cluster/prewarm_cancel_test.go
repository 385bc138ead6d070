package cluster

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/nicsim"
	"repro/internal/testbed"
)

// cancelAfter is a context that cancels itself once its Err has been
// consulted n times, so a test can stop Prewarm at a chosen check
// without racing a timer against the warm-up.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
}

func newCancelAfter(n int64) *cancelAfter {
	ctx, cancel := context.WithCancel(context.Background())
	c := &cancelAfter{Context: ctx, cancel: cancel}
	c.left.Store(n)
	return c
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// measuringWorkers counts the testbed warm-up goroutines that are still
// inside a footprint measurement (or waiting on one). A worker that has
// finished may not have returned yet, but it is past Workload.
func measuringWorkers() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "testbed.(*Testbed).WarmWorkloads.func") && strings.Contains(g, "testbed.(*Testbed).Workload(") {
			n++
		}
	}
	return n
}

// TestPrewarmCanceled: a context cancelled before, during or after the
// footprint batch makes Prewarm return ctx.Err(), and no measuring
// goroutine outlives the call.
func TestPrewarmCanceled(t *testing.T) {
	sc := Scenario{NFs: []string{"FlowStats", "ACL", "NIDS"}, Profiles: 4, Seed: 5}.WithDefaults()
	for _, n := range []int64{0, 1, 2, 4, 8} {
		env := NewEnv(nicsim.BlueField2(), 1, MapModels{})
		ctx := newCancelAfter(n)
		if err := env.Prewarm(ctx, sc, []string{"firstfit"}); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel after %d checks: Prewarm returned %v, want context.Canceled", n, err)
		}
		ctx.cancel()
		if w := measuringWorkers(); w > 0 {
			t.Fatalf("cancel after %d checks: %d warm-up goroutines still measuring after Prewarm returned", n, w)
		}
	}
}

// TestPrewarmErrorOrder: with two unknown NFs in the pool, Prewarm
// fails with the error the serial loop meets first — the first unknown
// NF in pool order — however the footprint batch ran.
func TestPrewarmErrorOrder(t *testing.T) {
	sc := Scenario{NFs: []string{"FlowStats", "NoSuchNF", "ACL", "AlsoMissing"}, Profiles: 2, Seed: 5}.WithDefaults()
	ref := testbed.New(nicsim.BlueField2(), 1)
	var want error
	for _, name := range sc.NFs {
		for _, prof := range sc.ProfilePool() {
			if _, err := ref.SoloNF(name, prof); err != nil && want == nil {
				want = err
			}
		}
	}
	if want == nil {
		t.Fatal("reference met no error")
	}
	for i := 0; i < 5; i++ {
		env := NewEnv(nicsim.BlueField2(), 1, MapModels{})
		err := env.Prewarm(context.Background(), sc, nil)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("Prewarm error %v, want the serial loop's %v", err, want)
		}
	}
}
