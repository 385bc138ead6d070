package serve

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/traffic"
	"repro/internal/wire"
)

// The response-cache key text is a format, not an implementation
// detail: reloadAffects and admitKeyNames parse it back, the feedback
// controller stores scenarioKey, and the canonical competitor order it
// implies decides the order co-run RNG draws and counter aggregation
// happen in. This file pins that text — to literals, and to a test-only
// copy of the fmt formulas it was first written as — so the builders
// can be rewritten underneath it.

// keyRow is one pinned scenario. comps are given as a client would
// send them (any order); order[i] is the index into comps of the i-th
// competitor in canonical order.
type keyRow struct {
	name    string
	backend Backend
	hw, nf  string
	prof    ProfileSpec
	comps   []CompetitorSpec
	order   []int
	predict string
	measure string
	// servable rows are valid requests, so they are also pinned end to
	// end through PredictOn / DiagnoseOn / CompareOn; the others carry
	// values the validator refuses and pin the builders alone.
	servable bool
}

var keyRows = []keyRow{
	{
		name: "bare", backend: BackendYala, nf: "ACL", servable: true,
		predict: "predict|yala||ACL@(16000, 1500, 600)|",
		measure: "measure||ACL@(16000, 1500, 600)|",
	},
	{
		name: "hardware class, one default competitor", backend: BackendSLOMO, hw: "bluefield2", nf: "FlowStats", servable: true,
		prof:    ProfileSpec{Flows: 64000},
		comps:   []CompetitorSpec{{Name: "ACL"}},
		order:   []int{0},
		predict: "predict|slomo|bluefield2|FlowStats@(64000, 1500, 600)|ACL@(16000, 1500, 600)",
		measure: "measure|bluefield2|FlowStats@(64000, 1500, 600)|ACL@(16000, 1500, 600)",
	},
	{
		name: "two competitors out of order, MTBR 0 and 0.1", backend: "fake", hw: "pensando", nf: "NAT", servable: true,
		prof:    ProfileSpec{Flows: 1000, PktSize: 256, MTBR: wire.F64(0)},
		comps:   []CompetitorSpec{{Name: "NIDS", Profile: ProfileSpec{MTBR: wire.F64(0.1)}}, {Name: "ACL", Profile: ProfileSpec{Flows: 8000}}},
		order:   []int{1, 0},
		predict: "predict|fake|pensando|NAT@(1000, 256, 0)|ACL@(8000, 1500, 600),NIDS@(16000, 1500, 0.1)",
		measure: "measure|pensando|NAT@(1000, 256, 0)|ACL@(8000, 1500, 600),NIDS@(16000, 1500, 0.1)",
	},
	{
		// 10000 sorts before 9000: the order is bytewise over the
		// rendered text, never numeric.
		name: "three competitors, bytewise not numeric", backend: BackendYala, nf: "FlowMonitor", servable: true,
		prof:    ProfileSpec{PktSize: 512},
		comps:   []CompetitorSpec{{Name: "ACL", Profile: ProfileSpec{Flows: 9000}}, {Name: "NIDS"}, {Name: "ACL", Profile: ProfileSpec{Flows: 10000}}},
		order:   []int{2, 0, 1},
		predict: "predict|yala||FlowMonitor@(16000, 512, 600)|ACL@(10000, 1500, 600),ACL@(9000, 1500, 600),NIDS@(16000, 1500, 600)",
		measure: "measure||FlowMonitor@(16000, 512, 600)|ACL@(10000, 1500, 600),ACL@(9000, 1500, 600),NIDS@(16000, 1500, 600)",
	},
	{
		name: "already ordered, explicit defaults", backend: BackendYala, nf: "NIDS", servable: true,
		prof:    ProfileSpec{Flows: 16000, PktSize: 1500, MTBR: wire.F64(600)},
		comps:   []CompetitorSpec{{Name: "ACL"}, {Name: "FlowStats", Profile: ProfileSpec{MTBR: wire.F64(1e-7)}}, {Name: "NAT", Profile: ProfileSpec{MTBR: wire.F64(12345.678)}}},
		order:   []int{0, 1, 2},
		predict: "predict|yala||NIDS@(16000, 1500, 600)|ACL@(16000, 1500, 600),FlowStats@(16000, 1500, 1e-07),NAT@(16000, 1500, 12345.678)",
		measure: "measure||NIDS@(16000, 1500, 600)|ACL@(16000, 1500, 600),FlowStats@(16000, 1500, 1e-07),NAT@(16000, 1500, 12345.678)",
	},
	{
		// '2' < 'e' and '+' < '-': 12345.678, then 1e+21, then 1e-07.
		name: "MTBR renderings order bytewise", backend: BackendYala, nf: "ACL",
		prof:    ProfileSpec{MTBR: wire.F64(1e21)},
		comps:   []CompetitorSpec{{Name: "NIDS", Profile: ProfileSpec{MTBR: wire.F64(1e21)}}, {Name: "NIDS", Profile: ProfileSpec{MTBR: wire.F64(12345.678)}}, {Name: "NIDS", Profile: ProfileSpec{MTBR: wire.F64(1e-7)}}},
		order:   []int{1, 0, 2},
		predict: "predict|yala||ACL@(16000, 1500, 1e+21)|NIDS@(16000, 1500, 12345.678),NIDS@(16000, 1500, 1e+21),NIDS@(16000, 1500, 1e-07)",
		measure: "measure||ACL@(16000, 1500, 1e+21)|NIDS@(16000, 1500, 12345.678),NIDS@(16000, 1500, 1e+21),NIDS@(16000, 1500, 1e-07)",
	},
	{
		// '2' < '@': a name that extends another sorts first.
		name: "name that is a prefix of another", backend: "b", hw: "h", nf: "n",
		comps:   []CompetitorSpec{{Name: "ACL"}, {Name: "ACL2"}},
		order:   []int{1, 0},
		predict: "predict|b|h|n@(16000, 1500, 600)|ACL2@(16000, 1500, 600),ACL@(16000, 1500, 600)",
		measure: "measure|h|n@(16000, 1500, 600)|ACL2@(16000, 1500, 600),ACL@(16000, 1500, 600)",
	},
}

// TestKeysPinned holds the predict|, measure| and admit| keys, and the
// canonical competitor order, to literals. Servable rows are pinned
// through the API entry points themselves: a sentinel planted under the
// literal key must come back as a cache hit, whatever order the request
// names its competitors in.
func TestKeysPinned(t *testing.T) {
	s := testService(t)
	ctx := context.Background()
	for _, row := range keyRows {
		t.Run(row.name, func(t *testing.T) {
			canon := canonSpecs(row.comps)
			if len(canon) != len(row.order) {
				t.Fatalf("canonSpecs returned %d competitors, want %d", len(canon), len(row.order))
			}
			for i, from := range row.order {
				if !reflect.DeepEqual(canon[i], row.comps[from]) {
					t.Errorf("canonical position %d holds %+v, want input %d %+v", i, canon[i], from, row.comps[from])
				}
			}
			prof := profileOf(row.prof)
			if got := predictKey(row.backend, row.hw, row.nf, prof, canon); got != row.predict {
				t.Errorf("predictKey\n got %q\nwant %q", got, row.predict)
			}
			if got := measureKey(row.hw, row.nf, prof, canon); got != row.measure {
				t.Errorf("measureKey\n got %q\nwant %q", got, row.measure)
			}
			_, scenario, _ := strings.Cut(row.measure, "|"+row.hw+"|")
			if got := scenarioKey(row.nf, prof, canon); got != scenario {
				t.Errorf("scenarioKey\n got %q\nwant %q", got, scenario)
			}
			if !row.servable {
				return
			}
			s.cache.Put(row.predict, PredictResponse{NF: "pinned " + row.predict, Bottleneck: "pinned"})
			got, err := s.PredictOn(ctx, row.hw, PredictRequest{NF: row.nf, Profile: row.prof, Competitors: row.comps, Backend: string(row.backend)})
			if err != nil || got.NF != "pinned "+row.predict {
				t.Errorf("PredictOn did not look up %q: answered %+v, err %v", row.predict, got, err)
			}
			if row.backend != BackendYala {
				return
			}
			diag, err := s.DiagnoseOn(ctx, row.hw, DiagnoseRequest{NF: row.nf, Profile: row.prof, Competitors: row.comps})
			if err != nil || diag.Bottleneck != "pinned" {
				t.Errorf("DiagnoseOn did not look up %q: answered %+v, err %v", row.predict, diag, err)
			}
			s.cache.Put(strings.Replace(row.predict, "predict|yala|", "predict|slomo|", 1), PredictResponse{NF: "pinned slomo"})
			s.cache.Put(row.measure, 4242.5)
			cmp, err := s.CompareOn(ctx, row.hw, CompareRequest{NF: row.nf, Profile: row.prof, Competitors: row.comps, GroundTruth: true})
			if err != nil || cmp.Yala.NF != "pinned "+row.predict || cmp.SLOMO.NF != "pinned slomo" || cmp.MeasuredPPS != 4242.5 {
				t.Errorf("CompareOn did not look up %q and %q: answered %+v, err %v", row.predict, row.measure, cmp, err)
			}
		})
	}

	// The admit key is assembled inside AdmitOn, so it is pinned only
	// through the entry point: residents in any order, SLAs at full
	// precision, the candidate last.
	for _, tc := range []struct {
		name    string
		hw      string
		backend string
		req     AdmitRequest
		key     string
	}{
		{
			name: "no residents", backend: "",
			req: AdmitRequest{Candidate: ColoNF{Name: "FlowStats", SLA: 0.05}},
			key: "admit|yala|||cand=FlowStats@(16000, 1500, 600)~0.05",
		},
		{
			name: "one resident on a hardware class", hw: "pensando", backend: "slomo",
			req: AdmitRequest{
				Residents: []ColoNF{{Name: "ACL", Profile: ProfileSpec{Flows: 4000}, SLA: 1}},
				Candidate: ColoNF{Name: "NIDS", Profile: ProfileSpec{MTBR: wire.F64(0)}, SLA: 0},
			},
			key: "admit|slomo|pensando|ACL@(4000, 1500, 600)~1|cand=NIDS@(16000, 1500, 0)~0",
		},
		{
			// The SLA is part of the sort key: the same NF and profile
			// order by "~0.1" < "~0.25", and 1e-07 keeps every digit.
			name: "three residents out of order", backend: "fake",
			req: AdmitRequest{
				Residents: []ColoNF{
					{Name: "NIDS", SLA: 0.25},
					{Name: "NAT", Profile: ProfileSpec{Flows: 8000, PktSize: 512, MTBR: wire.F64(0.1)}, SLA: 1e-7},
					{Name: "NIDS", SLA: 0.1},
				},
				Candidate: ColoNF{Name: "ACL", Profile: ProfileSpec{PktSize: 64}, SLA: 0.123456789012},
			},
			key: "admit|fake||NAT@(8000, 512, 0.1)~1e-07,NIDS@(16000, 1500, 600)~0.1,NIDS@(16000, 1500, 600)~0.25|cand=ACL@(16000, 64, 600)~0.123456789012",
		},
	} {
		t.Run("admit "+tc.name, func(t *testing.T) {
			tc.req.Backend = tc.backend
			s.cache.Put(tc.key, AdmitResponse{Admit: true, Reason: "pinned " + tc.key})
			got, err := s.AdmitOn(ctx, tc.hw, tc.req)
			if err != nil || got.Reason != "pinned "+tc.key {
				t.Errorf("AdmitOn did not look up %q: answered %+v, err %v", tc.key, got, err)
			}
		})
	}
	if st := s.cache.Stats(); st.Misses != 0 {
		t.Errorf("pinned lookups missed %d times; every one must be a hit", st.Misses)
	}
}

// The reference formulas: the key builders exactly as they were first
// written, kept here so the production ones can change shape.

func refProfile(p traffic.Profile) string {
	return fmt.Sprintf("(%d, %d, %g)", p.Flows, p.PktSize, p.MTBR)
}

func refSpecKey(c CompetitorSpec) string {
	return fmt.Sprintf("%s@%s", c.Name, refProfile(profileOf(c.Profile)))
}

func refCanonSpecs(specs []CompetitorSpec) []CompetitorSpec {
	out := append([]CompetitorSpec(nil), specs...)
	sort.SliceStable(out, func(i, j int) bool { return refSpecKey(out[i]) < refSpecKey(out[j]) })
	return out
}

func refScenarioKey(nf string, prof traffic.Profile, comps []CompetitorSpec) string {
	parts := make([]string, len(comps))
	for i, c := range comps {
		parts[i] = refSpecKey(c)
	}
	return fmt.Sprintf("%s@%s|%s", nf, refProfile(prof), strings.Join(parts, ","))
}

func refPredictKey(backendName Backend, hw, name string, prof traffic.Profile, comps []CompetitorSpec) string {
	return fmt.Sprintf("predict|%s|%s|%s", backendName, hw, refScenarioKey(name, prof, comps))
}

func refMeasureKey(hw, name string, prof traffic.Profile, comps []CompetitorSpec) string {
	return fmt.Sprintf("measure|%s|%s", hw, refScenarioKey(name, prof, comps))
}

func refColoKey(c ColoNF) string {
	return fmt.Sprintf("%s@%s~%s", c.Name, refProfile(profileOf(c.Profile)), strconv.FormatFloat(c.SLA, 'g', -1, 64))
}

// FuzzScenarioKey holds the production key builders to the reference
// formulas for arbitrary names, attribute values and float bit
// patterns — none of which the validator would let near a real key,
// which is the point: the builders must agree everywhere, not only on
// the inputs a test author thought of.
func FuzzScenarioKey(f *testing.F) {
	f.Add("yala", "", "ACL", "NIDS", "FlowStats", "NAT", 0, 0, uint64(0), uint8(0))
	f.Add("slomo", "bluefield2", "FlowStats", "ACL", "ACL", "ACL", 64000, 256, math.Float64bits(0.1), uint8(1))
	f.Add("fake", "pensando", "NAT", "NIDS", "ACL", "ACL2", 9000, 10000, math.Float64bits(1e-7), uint8(3))
	f.Add("yala", "", "NIDS", "b", "a", "a@", 1, 9216, math.Float64bits(1e21), uint8(3))
	f.Add("b", "h", "n", "x|y", "x,y", "(1, 2, 3)", -1, -64, math.Float64bits(12345.678), uint8(2))
	f.Add("", "", "", "", "", "", math.MinInt64, math.MaxInt64, math.Float64bits(math.Inf(-1)), uint8(3))
	f.Add("yala", "", "ACL", "é", "\x00", "~0.1", 16000, 1500, uint64(1), uint8(3))            // a denormal
	f.Add("yala", "", "ACL", "c", "b", "a", 16000, 1500, uint64(0x7ff8000000000001), uint8(3)) // a NaN
	f.Fuzz(func(t *testing.T, backendName, hw, name, c0, c1, c2 string, flows, pktsize int, mtbrBits uint64, n uint8) {
		mtbr := math.Float64frombits(mtbrBits)
		spec := ProfileSpec{Flows: flows, PktSize: pktsize, MTBR: &mtbr}
		prof := profileOf(spec)
		// Competitors vary what the target does not: one takes the
		// profile as is, one swaps the integer attributes, one leaves
		// everything to the defaults.
		comps := []CompetitorSpec{
			{Name: c0, Profile: spec},
			{Name: c1, Profile: ProfileSpec{Flows: pktsize, PktSize: flows}},
			{Name: c2},
		}[:n%4]

		canon, ref := canonSpecs(comps), refCanonSpecs(comps)
		if len(canon) != len(ref) {
			t.Fatalf("canonSpecs returned %d of %d competitors", len(canon), len(ref))
		}
		for i := range ref {
			// Equal renderings are interchangeable; the order of the
			// renderings is what must match.
			if got, want := refSpecKey(canon[i]), refSpecKey(ref[i]); got != want {
				t.Fatalf("canonical position %d holds %q, the reference %q", i, got, want)
			}
		}
		if got, want := scenarioKey(name, prof, canon), refScenarioKey(name, prof, ref); got != want {
			t.Fatalf("scenarioKey\n got %q\nwant %q", got, want)
		}
		if got, want := predictKey(Backend(backendName), hw, name, prof, canon), refPredictKey(Backend(backendName), hw, name, prof, ref); got != want {
			t.Fatalf("predictKey\n got %q\nwant %q", got, want)
		}
		if got, want := measureKey(hw, name, prof, canon), refMeasureKey(hw, name, prof, ref); got != want {
			t.Fatalf("measureKey\n got %q\nwant %q", got, want)
		}
		colo := ColoNF{Name: name, Profile: spec, SLA: mtbr}
		if got, want := coloKey(colo), refColoKey(colo); got != want {
			t.Fatalf("coloKey\n got %q\nwant %q", got, want)
		}
	})
}
