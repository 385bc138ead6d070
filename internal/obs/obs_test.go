package obs

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("yala_requests_total", "verb", "predict")
	c.Add(3)
	c.Inc()
	if got := c.Load(); got != 4 {
		t.Fatalf("Load = %d, want 4", got)
	}
	// Same series identity on re-lookup.
	if r.Counter("yala_requests_total", "verb", "predict") != c {
		t.Fatal("re-lookup returned a different counter")
	}
	r.Counter("yala_requests_total", "verb", "admit").Inc()
	r.GaugeFunc("yala_workers", func() float64 { return 8 })
	r.CounterFunc("yala_cache_hits_total", func() uint64 { return 42 })

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE yala_requests_total counter\n",
		`yala_requests_total{verb="predict"} 4` + "\n",
		`yala_requests_total{verb="admit"} 1` + "\n",
		"# TYPE yala_workers gauge\n",
		"yala_workers 8\n",
		"# TYPE yala_cache_hits_total counter\n",
		"yala_cache_hits_total 42\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Sorted label sets: admit before predict.
	if strings.Index(out, `verb="admit"`) > strings.Index(out, `verb="predict"`) {
		t.Error("series not sorted by labels")
	}
}

func TestLabelCanonicalization(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", "b", "2", "a", "1")
	b := r.Counter("m", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order should not create distinct series")
	}
	var sb strings.Builder
	r.WriteProm(&sb)
	if !strings.Contains(sb.String(), `m{a="1",b="2"} 0`) {
		t.Fatalf("labels not key-sorted: %s", sb.String())
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "path", `a"b\c`).Inc()
	var sb strings.Builder
	r.WriteProm(&sb)
	if !strings.Contains(sb.String(), `m{path="a\"b\\c"} 1`) {
		t.Fatalf("bad escaping: %s", sb.String())
	}
	// Round-trips through the parser.
	exp, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, got := exp.Samples[0].Label("path"); got != true || v != `a"b\c` {
		t.Fatalf("Label = %q, %v", v, got)
	}
}

// Satellite: zero observations must still render a valid exposition
// with every bucket (including +Inf) present and consistent.
func TestHistogramZeroObservations(t *testing.T) {
	r := NewRegistry()
	r.Histogram("yala_stage_seconds", []float64{0.001, 0.01, 0.1}, "stage", "decode")
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE yala_stage_seconds histogram\n",
		`yala_stage_seconds_bucket{stage="decode",le="0.001"} 0`,
		`yala_stage_seconds_bucket{stage="decode",le="0.01"} 0`,
		`yala_stage_seconds_bucket{stage="decode",le="0.1"} 0`,
		`yala_stage_seconds_bucket{stage="decode",le="+Inf"} 0`,
		`yala_stage_seconds_sum{stage="decode"} 0`,
		`yala_stage_seconds_count{stage="decode"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("zero-obs exposition missing %q in:\n%s", want, out)
		}
	}
	exp, err := ParseExposition(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	uppers, cum, _, count, ok := exp.HistogramSeries("yala_stage_seconds", `stage="decode"`)
	if !ok || count != 0 || len(uppers) != 3 || len(cum) != 4 {
		t.Fatalf("parse-back: uppers=%v cum=%v count=%d ok=%v", uppers, cum, count, ok)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1.5, 1.7, 4, 100} {
		h.Observe(v)
	}
	cum := h.snapshotCumulative()
	want := []uint64{1, 3, 4, 5}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cum = %v, want %v", cum, want)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if math.Abs(h.Sum()-107.7) > 1e-9 {
		t.Fatalf("Sum = %g", h.Sum())
	}
	// Boundary value lands in its own bucket (le is inclusive).
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(1)
	if c := h2.snapshotCumulative(); c[0] != 1 {
		t.Fatalf("boundary observation not in le=1 bucket: %v", c)
	}
}

func TestHistogramDropsExplicitInf(t *testing.T) {
	h := NewHistogram([]float64{1, math.Inf(1)})
	if len(h.uppers) != 1 {
		t.Fatalf("explicit +Inf bound kept: %v", h.uppers)
	}
	h.Observe(5)
	if c := h.snapshotCumulative(); c[len(c)-1] != 1 || c[0] != 0 {
		t.Fatalf("overflow bucket wrong: %v", c)
	}
}

// Satellite: concurrent Observe under -race, with a reader racing the
// writers through snapshot and exposition paths.
func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hammer_seconds", []float64{0.25, 0.5, 0.75}, "stage", "x")
	const (
		workers = 8
		perW    = 2000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // racing reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			r.WriteProm(&sb)
			h.Quantile(0.5)
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Observe(float64(i%100) / 100)
				r.Counter("hammer_total", "w", "shared").Inc()
			}
		}(w)
	}
	// Let the writers drain, then stop the racing reader.
	for h.Count() < workers*perW {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if got := h.Count(); got != workers*perW {
		t.Fatalf("Count = %d, want %d", got, workers*perW)
	}
	cum := h.snapshotCumulative()
	if cum[len(cum)-1] != workers*perW {
		t.Fatalf("cumulative total = %d", cum[len(cum)-1])
	}
	if got := r.Counter("hammer_total", "w", "shared").Load(); got != workers*perW {
		t.Fatalf("counter = %d", got)
	}
	wantSum := float64(workers) * 2000 * 0.495 // mean of (i%100)/100 over 2000 iterations
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Fatalf("Sum = %g, want %g", h.Sum(), wantSum)
	}
}

// Satellite: the quantile estimator clamps instead of returning NaN on
// degenerate inputs — the same contract serve's percentile() keeps for
// client-side latencies.
func TestBucketQuantileClamps(t *testing.T) {
	tests := []struct {
		name   string
		uppers []float64
		cum    []uint64
		p      float64
		want   float64
	}{
		{"empty everything", nil, nil, 0.5, 0},
		{"zero observations", []float64{1, 2}, []uint64{0, 0, 0}, 0.99, 0},
		{"no finite buckets all inf", nil, []uint64{7}, 0.5, 0},
		{"one bucket", []float64{1}, []uint64{4, 4}, 0.5, 0.5},
		{"p below zero clamps", []float64{1, 2}, []uint64{2, 4, 4}, -3, 0},
		{"p above one clamps", []float64{1, 2}, []uint64{2, 4, 4}, 7, 2},
		{"mass in inf bucket clamps to last upper", []float64{1, 2}, []uint64{0, 0, 5}, 0.5, 2},
		{"median interpolates", []float64{1, 2}, []uint64{2, 4, 4}, 0.5, 1},
		{"p99 in top finite bucket", []float64{1, 2}, []uint64{2, 4, 4}, 0.99, 1.98},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := BucketQuantile(tc.uppers, tc.cum, tc.p)
			if math.IsNaN(got) {
				t.Fatalf("returned NaN")
			}
			if math.Abs(got-tc.want) > 1e-9 {
				t.Fatalf("BucketQuantile = %g, want %g", got, tc.want)
			}
		})
	}
	// Histogram.Quantile on a fresh histogram must not NaN either.
	h := NewHistogram(nil)
	if q := h.Quantile(0.99); q != 0 || math.IsNaN(q) {
		t.Fatalf("empty histogram Quantile = %g", q)
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTrace("req-000001")
	ctx := ContextWithTrace(context.Background(), tr)
	sp := StartSpan(ctx, "decode")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	// Concurrent spans on one trace (batch fan-out shape).
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := StartSpan(ctx, "predict")
			time.Sleep(time.Millisecond)
			s.End()
		}()
	}
	wg.Wait()
	st := tr.Stages()
	if st["decode"] < 2*time.Millisecond {
		t.Fatalf("decode = %v", st["decode"])
	}
	if st["predict"] < 4*time.Millisecond {
		t.Fatalf("predict should sum concurrent spans: %v", st["predict"])
	}
	// Untraced context: everything is a no-op.
	s := StartSpan(context.Background(), "decode")
	s.End()
	if FromContext(context.Background()) != nil {
		t.Fatal("FromContext on untraced ctx")
	}
}

func TestParseAndMergeExpositions(t *testing.T) {
	mk := func(uptime, start, reqs float64) *Exposition {
		r := NewRegistry()
		c := r.Counter("yala_requests_total", "verb", "predict")
		c.Add(uint64(reqs))
		r.GaugeFunc("yala_uptime_seconds", func() float64 { return uptime })
		r.GaugeFunc("yala_start_time_seconds", func() float64 { return start })
		r.Histogram("yala_stage_seconds", []float64{0.1}, "stage", "predict").Observe(0.05)
		var sb strings.Builder
		r.WriteProm(&sb)
		exp, err := ParseExposition(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		return exp
	}
	a := mk(100, 1000, 3)
	b := mk(50, 2000, 5)

	rule := func(fam string) MergeRule {
		switch fam {
		case "yala_uptime_seconds":
			return MergeMax
		case "yala_start_time_seconds":
			return MergeMin
		}
		return MergeSum
	}
	m := MergeExpositions([]*Exposition{a, b, nil}, rule)

	if v, ok := m.Value("yala_requests_total", `verb="predict"`); !ok || v != 8 {
		t.Fatalf("merged requests = %v, %v", v, ok)
	}
	if v, ok := m.Value("yala_uptime_seconds", ""); !ok || v != 100 {
		t.Fatalf("merged uptime = %v (must be max, not sum)", v)
	}
	if v, ok := m.Value("yala_start_time_seconds", ""); !ok || v != 1000 {
		t.Fatalf("merged start = %v (must be min)", v)
	}
	// Histogram components summed.
	uppers, cum, sum, count, ok := m.HistogramSeries("yala_stage_seconds", `stage="predict"`)
	if !ok || count != 2 || len(uppers) != 1 || cum[0] != 2 || math.Abs(sum-0.1) > 1e-9 {
		t.Fatalf("merged histogram: uppers=%v cum=%v sum=%g count=%d ok=%v", uppers, cum, sum, count, ok)
	}
	// Merged exposition renders back to valid text.
	var sb strings.Builder
	if err := m.Render(&sb); err != nil {
		t.Fatal(err)
	}
	re, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Samples) != len(m.Samples) {
		t.Fatalf("re-parse lost samples: %d != %d", len(re.Samples), len(m.Samples))
	}
	if re.Types["yala_requests_total"] != "counter" {
		t.Fatalf("TYPE lines lost: %v", re.Types)
	}
}

// TestParseExpositionTolerant: the one Prometheus text parser in the
// tree reads replica sockets (gateway.scrapeReplicas) and loadgen's
// /metrics scrapes, so malformed lines are dropped, never fatal, and
// quoted label values may carry braces, quotes and escapes.
func TestParseExpositionTolerant(t *testing.T) {
	in := `# HELP something helpful
# TYPE m counter
m{a="x}y"} 3
garbage line without a value
m_nolabels 4 1700000000
weird{a="br{ce",b="q\"uote",c="two\nlines"} 1 1700000000000
valueless
valueless_labeled{a="b"}
{} 5
# TYPE yala_uptime_seconds gauge
yala_uptime_seconds 123.5
yala_stage_seconds_bucket{stage="decode",le="0.001"} 10
yala_stage_seconds_bucket{stage="decode",le="+Inf"} 12
yala_stage_seconds_sum{stage="decode"} 0.025
yala_stage_seconds_count{stage="decode"} 12
`
	exp, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Samples) != 8 {
		t.Fatalf("samples = %+v, want 8 (garbage, value-less and nameless lines dropped)", exp.Samples)
	}
	if v, _ := exp.Samples[0].Label("a"); v != "x}y" {
		t.Fatalf("brace-in-value mishandled: %q", v)
	}
	if exp.Samples[1].Value != 4 {
		t.Fatalf("timestamped sample: %+v", exp.Samples[1])
	}
	weird := exp.Samples[2]
	if weird.Name != "weird" || weird.Value != 1 {
		t.Fatalf("weird sample: %+v", weird)
	}
	for key, want := range map[string]string{"a": "br{ce", "b": `q"uote`, "c": "two\nlines"} {
		if got, ok := weird.Label(key); !ok || got != want {
			t.Fatalf("weird label %s = %q (ok=%v), want %q", key, got, ok, want)
		}
	}
	if got, ok := weird.Label("missing"); ok || got != "" {
		t.Fatalf("missing label = %q (ok=%v), want absent", got, ok)
	}
	if _, ok := exp.Value("valueless", ""); ok {
		t.Fatal("value-less line should have been dropped")
	}
	if v, ok := exp.Value("yala_uptime_seconds", ""); !ok || v != 123.5 {
		t.Fatalf("unlabeled gauge = %g (ok=%v), want 123.5", v, ok)
	}
	if _, ok := exp.Samples[3].Label("le"); ok {
		t.Fatalf("unlabeled sample answered a label: %+v", exp.Samples[3])
	}
	if v, ok := exp.Value("yala_stage_seconds_bucket", `le="+Inf"`); !ok || v != 12 {
		t.Fatalf("+Inf bucket = %g (ok=%v), want 12", v, ok)
	}
	uppers, cum, sum, count, ok := exp.HistogramSeries("yala_stage_seconds", `stage="decode"`)
	if !ok || len(uppers) != 1 || uppers[0] != 0.001 || len(cum) != 2 || cum[0] != 10 || cum[1] != 12 || sum != 0.025 || count != 12 {
		t.Fatalf("decode histogram = %v %v %g %d (ok=%v)", uppers, cum, sum, count, ok)
	}
	if exp.Types["m"] != "counter" || exp.Types["yala_uptime_seconds"] != "gauge" {
		t.Fatalf("TYPE lines: %v", exp.Types)
	}
}
