package obs

import (
	"strings"
	"testing"
)

// FuzzParseExposition feeds arbitrary bytes to the exposition parser —
// the gateway runs it on whatever a replica's /metrics socket returns —
// and requires that it never panics, that every accessor survives what
// it parsed, and that Render → ParseExposition is a fixed point: what
// the gateway re-serves after a merge parses back to itself.
func FuzzParseExposition(f *testing.F) {
	r := NewRegistry()
	r.Counter("yala_requests_total", "path", `a"b\c`).Add(1)
	r.Histogram("yala_stage_seconds", nil, "stage", "decode").Observe(0.002)
	var sb strings.Builder
	r.WriteProm(&sb)
	f.Add(sb.String())
	f.Add("# TYPE m counter\nm{a=\"x}y\"} 3\nm_nolabels 4 1700000000\n")
	f.Add("weird{a=\"br{ce\",b=\"q\\\"uote\"} 1 1700000000000\nvalueless\n{} 5\n")
	f.Add("h_bucket{le=\"+Inf\"} NaN\nh_bucket{le=\"x\"} 1\nh_count -1\nm{a=\"unterminated} 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		exp, err := ParseExposition(strings.NewReader(in))
		if err != nil {
			return // a line beyond the scanner's cap
		}
		for i, s := range exp.Samples {
			s.Label("le")
			if i == 0 { // one extraction per input keeps the target linear
				exp.HistogramSeries(familyOf(s.Name), "")
			}
		}
		var first strings.Builder
		if err := exp.Render(&first); err != nil {
			t.Fatal(err)
		}
		again, err := ParseExposition(strings.NewReader(first.String()))
		if err != nil {
			t.Fatalf("rendered exposition does not parse: %v\n%s", err, first.String())
		}
		var second strings.Builder
		if err := again.Render(&second); err != nil {
			t.Fatal(err)
		}
		if first.String() != second.String() {
			t.Fatalf("Render→ParseExposition is not a fixed point:\n%q\n%q", first.String(), second.String())
		}
	})
}
