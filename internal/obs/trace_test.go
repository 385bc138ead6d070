package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/israce"
)

// inlineStages is how many stage names a Trace totals without spilling.
const inlineStages = len(Trace{}.inline)

// TestTraceInlineSpans gates the request lifecycle's allocation budget
// at its source: a trace and its traced context are one allocation,
// and eight spans and a Fold over them add none.
func TestTraceInlineSpans(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	stages := []string{"decode", "cache", "predict", "encode"}
	var folded time.Duration
	got := testing.AllocsPerRun(1000, func() {
		tr := NewTrace("req-000001")
		ctx := ContextWithTrace(context.Background(), tr)
		for i := 0; i < 8; i++ {
			StartSpan(ctx, stages[i%len(stages)]).End()
		}
		tr.Fold(func(_ string, d time.Duration) { folded += d })
	})
	if got > 1 {
		t.Errorf("trace + traced context + 8 spans + Fold allocate %.1f times, want 1 (the trace itself)", got)
	}

	// The inline storage is by stage name, not by span: as many distinct
	// names as the pipeline has still fit, and one more is the first to
	// spill.
	names := make([]string, inlineStages+1)
	for i := range names {
		names[i] = fmt.Sprintf("stage-%d", i)
	}
	for n, want := range map[int]float64{inlineStages: 1, inlineStages + 1: 2} {
		got := testing.AllocsPerRun(100, func() {
			tr := NewTrace("req-000001")
			for _, name := range names[:n] {
				tr.add(name, time.Microsecond)
			}
		})
		if got != want {
			t.Errorf("a trace with %d stage names allocates %.1f times, want %.0f", n, got, want)
		}
	}
}

// TestTraceContext pins the traced context: it finds its trace with or
// without wrappers around it, passes every other key and the parent's
// cancellation through, and a second context for one trace works like
// the first (only the first is free).
func TestTraceContext(t *testing.T) {
	type otherKey struct{}
	parent, cancel := context.WithCancel(context.WithValue(context.Background(), otherKey{}, "kept"))
	tr := NewTrace("req-000007")
	ctx := ContextWithTrace(parent, tr)
	child, cancelChild := context.WithTimeout(context.WithValue(ctx, "k", "v"), time.Hour)
	defer cancelChild()
	again := ContextWithTrace(context.Background(), tr)
	for name, c := range map[string]context.Context{"traced": ctx, "wrapped": child, "second": again} {
		if FromContext(c) != tr {
			t.Errorf("%s context lost its trace", name)
		}
	}
	if ctx == again {
		t.Error("a second context for one trace must not reuse the first's storage")
	}
	if got := child.Value(otherKey{}); got != "kept" {
		t.Errorf("parent value through the traced context = %v, want kept", got)
	}
	if FromContext(parent) != nil || FromContext(context.Background()) != nil {
		t.Error("an untraced context reported a trace")
	}
	cancel()
	select {
	case <-child.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the parent's cancellation did not reach a child of the traced context")
	}
	if ctx.Err() != context.Canceled {
		t.Errorf("traced context Err = %v after the parent was canceled", ctx.Err())
	}
}

// TestTraceConcurrentSpansOverflow drives spans from many goroutines
// across more stage names than fit inline — the shape of a batch fanning out
// on one request context, widened past the inline → overflow boundary —
// and requires every duration to land on its stage: nothing lost,
// nothing double counted, Fold and Stages in agreement. Run with -race.
func TestTraceConcurrentSpansOverflow(t *testing.T) {
	const goroutines, perStage = 64, 25
	const stages = inlineStages + 5
	tr := NewTrace("req-000001")
	ctx := ContextWithTrace(context.Background(), tr)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perStage*stages; i++ {
				// Real spans interleave with exact adds: spans exercise
				// the clock path, the adds make the totals checkable.
				sp := StartSpan(ctx, "spanned")
				stage := (g + i) % stages
				tr.add(fmt.Sprintf("stage-%02d", stage), time.Duration(stage+1)*time.Microsecond)
				sp.End()
			}
		}(g)
	}
	wg.Wait()

	got := tr.Stages()
	if len(got) != stages+1 {
		t.Fatalf("%d stages recorded, want %d and \"spanned\": %v", len(got), stages, got)
	}
	for stage := 0; stage < stages; stage++ {
		want := time.Duration(goroutines*perStage*(stage+1)) * time.Microsecond
		if name := fmt.Sprintf("stage-%02d", stage); got[name] != want {
			t.Errorf("%s totals %v, want %v", name, got[name], want)
		}
	}
	if got["spanned"] <= 0 {
		t.Errorf("%d real spans totalled %v", goroutines*perStage*stages, got["spanned"])
	}
	seen := 0
	tr.Fold(func(name string, total time.Duration) {
		seen++
		if got[name] != total {
			t.Errorf("Fold reports %s = %v, Stages %v", name, total, got[name])
		}
	})
	if seen != len(got) {
		t.Errorf("Fold visited %d stages, Stages has %d", seen, len(got))
	}
}

// TestSpanSharedBoundary pins the clock-sharing contract: End returns
// the instant it recorded, a span started at that instant abuts the
// one before it exactly, and the zero instant means "now".
func TestSpanSharedBoundary(t *testing.T) {
	tr := NewTrace("req-000001")
	ctx := ContextWithTrace(context.Background(), tr)
	t0 := time.Now()
	first := StartSpanAt(ctx, "decode", t0)
	mid := first.End()
	end := StartSpanAt(ctx, "cache", mid).End()
	st := tr.Stages()
	if st["decode"] != mid.Sub(t0) || st["cache"] != end.Sub(mid) || st["decode"]+st["cache"] != end.Sub(t0) {
		t.Errorf("abutting spans do not tile [t0, end]: %v over %v", st, end.Sub(t0))
	}
	if sp := StartSpanAt(ctx, "encode", time.Time{}); sp.start.Before(end) {
		t.Errorf("a span started at the zero instant began at %v, before now", sp.start)
	}
	if got := StartSpanAt(context.Background(), "decode", t0).End(); !got.IsZero() {
		t.Errorf("End on an untraced context returned %v, want the zero time", got)
	}
}
