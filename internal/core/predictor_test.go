package core

import (
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/nicsim"
	"repro/internal/traffic"
)

// threeResourceModel is a hand-fitted model with memory, regex and
// compression stages (the shape of nfbench.NF2). The values are picked
// so the float sum of its three drops depends on the order they are
// added in: solo sits just above a power of two and the memory drop is
// over half of it, so a partial sum that includes the memory drop rounds
// where one that does not is exact.
func threeResourceModel(t *testing.T) (*Model, []Competitor) {
	t.Helper()
	cfg := ml.GBRConfig{Trees: 4, LearningRate: 0.5, MaxDepth: 2, MinLeaf: 1, Subsample: 1, Seed: 1}
	quiet := nicsim.Counters{}
	loud := nicsim.Counters{L2CRD: 70e6, L2CWR: 30e6, MEMRD: 20e6, MEMWR: 9e6, WSS: 8 << 20}
	solo, err := FitSoloModel([]SoloSample{{traffic.Default, 300000.3}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := FitMemModel([]MemSample{
		{Competitors: quiet, Profile: traffic.Default, Throughput: 1, SoloThroughput: 1},
		{Competitors: loud, Profile: traffic.Default, Throughput: 0.37, SoloThroughput: 1},
	}, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := &Model{
		Name:    "three-resource",
		Pattern: nicsim.RunToCompletion,
		Solo:    solo,
		Mem:     mem,
		Accels: map[nicsim.AccelKind]*AccelModel{
			nicsim.AccelRegex:    {Queues: 1, T0: 1.45e-6, A: 1e-10, Attr: AttrFor(nicsim.AccelRegex), ReqsPerPkt: 1},
			nicsim.AccelCompress: {Queues: 1, T0: 2.3e-6, A: 1e-10, Attr: AttrFor(nicsim.AccelCompress), ReqsPerPkt: 1},
		},
	}
	comps := []Competitor{{
		Counters: loud,
		Accel: map[nicsim.AccelKind]AccelLoad{
			nicsim.AccelRegex:    {Queues: 1, ServiceSec: 1.9e-6, OfferedReq: 0.31e6},
			nicsim.AccelCompress: {Queues: 1, ServiceSec: 2.9e-6, OfferedReq: 0.17e6},
		},
	}}
	return m, comps
}

// TestPredictWithDeterministic: Sum and RTC composition add the
// per-resource drops as floats, so PredictWith must walk PerResource in
// the fixed memory-then-accelerator-kind order Predict uses, never in
// map order — 200 calls on a three-resource model answer bit-identically
// and agree with the ordered reference.
func TestPredictWithDeterministic(t *testing.T) {
	m, comps := threeResourceModel(t)
	p := m.Predict(traffic.Default, comps)
	if len(p.PerResource) != 3 {
		t.Fatalf("model predicts %d resources, want 3: %+v", len(p.PerResource), p.PerResource)
	}
	ordered := []float64{
		math.Max(0, p.Solo-p.PerResource[nicsim.ResMemory]),
		math.Max(0, p.Solo-p.PerResource[nicsim.ResRegex]),
		math.Max(0, p.Solo-p.PerResource[nicsim.ResCompress]),
	}
	for _, d := range ordered {
		if d <= 0 || d >= p.Solo {
			t.Fatalf("drops %v at solo %v: every resource must bite, none may saturate", ordered, p.Solo)
		}
	}
	for _, c := range []Composition{ComposeSum, ComposeRTC} {
		want := Compose(c, p.Solo, ordered)
		sensitive := false
		for _, pm := range [][3]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
			other := Compose(c, p.Solo, []float64{ordered[pm[0]], ordered[pm[1]], ordered[pm[2]]})
			sensitive = sensitive || math.Float64bits(other) != math.Float64bits(want)
		}
		if !sensitive {
			t.Fatalf("%v: drops %v compose identically in every order; the fixture no longer tests anything", c, ordered)
		}
		for i := 0; i < 200; i++ {
			if got := m.PredictWith(c, traffic.Default, comps).Throughput; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v call %d: throughput %v (%#x), want %v (%#x)", c, i,
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
