package loadgen

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestPercentile pins the quantile edge cases: the empty slice, exact
// boundary quantiles, one-element slices (p99 of one sample is that
// sample) and out-of-range p must all read without indexing out of
// range.
func TestPercentile(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	cases := []struct {
		name   string
		sorted []time.Duration
		p      float64
		want   time.Duration
	}{
		{"empty p50", nil, 0.50, 0},
		{"empty p0", ms(), 0.0, 0},
		{"empty p100", ms(), 1.0, 0},
		{"one element p0", ms(7), 0.0, 7 * time.Millisecond},
		{"one element p50", ms(7), 0.50, 7 * time.Millisecond},
		{"one element p99", ms(7), 0.99, 7 * time.Millisecond},
		{"one element p100", ms(7), 1.0, 7 * time.Millisecond},
		{"two elements p0 is min", ms(1, 9), 0.0, 1 * time.Millisecond},
		{"two elements p100 is max", ms(1, 9), 1.0, 9 * time.Millisecond},
		{"ten elements p50", ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 0.50, 5 * time.Millisecond},
		{"ten elements p99", ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 0.99, 9 * time.Millisecond},
		{"negative p clamps to min", ms(1, 9), -0.5, 1 * time.Millisecond},
		{"p beyond 1 clamps to max", ms(1, 9), 1.5, 9 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("%s: percentile(%v, %g) = %v, want %v", tc.name, tc.sorted, tc.p, got, tc.want)
		}
	}
}

// TestCounterDelta: monotonic-counter deltas degrade to the raw after
// value on a mid-run counter reset instead of wrapping unsigned.
func TestCounterDelta(t *testing.T) {
	cases := []struct{ after, before, want uint64 }{
		{10, 3, 7},
		{3, 3, 0},
		{2, 10, 2}, // reset between snapshots
		{0, 5, 0},
	}
	for _, tc := range cases {
		if got := counterDelta(tc.after, tc.before); got != tc.want {
			t.Errorf("counterDelta(%d, %d) = %d, want %d", tc.after, tc.before, got, tc.want)
		}
	}
}

// TestStageBreakdown: the before/after /metrics delta becomes per-stage
// attribution — untouched stages vanish, counter resets are dropped
// instead of reported from garbage, and quantiles come off the delta
// histogram.
func TestStageBreakdown(t *testing.T) {
	scrape := func(text string) *obs.Exposition {
		exp, err := obs.ParseExposition(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return exp
	}
	before := scrape(`
yala_stage_seconds_bucket{stage="decode",le="0.001"} 10
yala_stage_seconds_bucket{stage="decode",le="0.01"} 10
yala_stage_seconds_bucket{stage="decode",le="+Inf"} 10
yala_stage_seconds_sum{stage="decode"} 0.005
yala_stage_seconds_count{stage="decode"} 10
yala_stage_seconds_bucket{stage="cache",le="0.001"} 5
yala_stage_seconds_bucket{stage="cache",le="+Inf"} 5
yala_stage_seconds_sum{stage="cache"} 0.001
yala_stage_seconds_count{stage="cache"} 5
yala_stage_seconds_bucket{stage="reset",le="+Inf"} 100
yala_stage_seconds_count{stage="reset"} 100
`)
	after := scrape(`
yala_stage_seconds_bucket{stage="decode",le="0.001"} 20
yala_stage_seconds_bucket{stage="decode",le="0.01"} 30
yala_stage_seconds_bucket{stage="decode",le="+Inf"} 30
yala_stage_seconds_sum{stage="decode"} 0.105
yala_stage_seconds_count{stage="decode"} 30
yala_stage_seconds_bucket{stage="cache",le="0.001"} 5
yala_stage_seconds_bucket{stage="cache",le="+Inf"} 5
yala_stage_seconds_sum{stage="cache"} 0.001
yala_stage_seconds_count{stage="cache"} 5
yala_stage_seconds_bucket{stage="reset",le="+Inf"} 3
yala_stage_seconds_count{stage="reset"} 3
`)
	stages := stageBreakdown(before, after)
	if len(stages) != 1 || stages[0].Stage != "decode" {
		t.Fatalf("stages = %+v, want exactly the decode stage (cache untouched, reset dropped)", stages)
	}
	d := stages[0]
	if d.Count != 20 {
		t.Fatalf("decode count = %d, want 20", d.Count)
	}
	// sum delta 0.1s over 20 spans → 5ms average (within float rounding).
	if diff := d.Avg - 5*time.Millisecond; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("decode avg = %v, want ~5ms", d.Avg)
	}
	// Delta histogram: 10 spans ≤1ms, 10 more ≤10ms → p50 at the 1ms
	// boundary, p99 inside the (1ms, 10ms] bucket.
	if d.P50 != time.Millisecond {
		t.Fatalf("decode p50 = %v, want 1ms", d.P50)
	}
	if d.P99 <= time.Millisecond || d.P99 > 10*time.Millisecond {
		t.Fatalf("decode p99 = %v, want within (1ms, 10ms]", d.P99)
	}
}

// TestClosedLoop drives the run loop from several workers at once: the
// budget is spent exactly, served, shed and failed calls land in their
// own columns, only served calls carry latency and predictions, and a
// paced loop takes at least its pace per call per worker.
func TestClosedLoop(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	o := closedLoop(4, 90, 0, func(wk int) (int, error) {
		switch calls.Add(1) % 3 {
		case 0:
			return 2, nil
		case 1:
			return 2, errShed
		}
		return 2, boom
	})
	if calls.Load() != 90 || len(o.lats) != 30 || o.shed != 30 || o.errs != 30 {
		t.Fatalf("calls %d, served/shed/failed = %d/%d/%d, want 90 and 30/30/30", calls.Load(), len(o.lats), o.shed, o.errs)
	}
	if o.preds != 60 || o.first != boom {
		t.Fatalf("predictions %d (want 60, served calls only), first failure %v", o.preds, o.first)
	}
	for i := 1; i < len(o.lats); i++ {
		if o.lats[i] < o.lats[i-1] {
			t.Fatalf("latencies not sorted: %v", o.lats)
		}
	}
	start := time.Now()
	closedLoop(2, 6, 5*time.Millisecond, func(int) (int, error) { return 1, nil })
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("6 calls over 2 workers paced at 5ms took %v, want >= 15ms", d)
	}
}
