package core

import (
	"strings"
	"testing"

	"repro/internal/nicsim"
	"repro/internal/profiling"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

func TestTrainUnknownNF(t *testing.T) {
	tb := testbed.New(nicsim.BlueField2(), 61)
	_, err := NewTrainer(tb, DefaultTrainConfig()).Train("NoSuchNF")
	if err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("err = %v", err)
	}
}

func TestTrainSourceErrorsPropagate(t *testing.T) {
	tb := testbed.New(nicsim.BlueField2(), 62)
	src := func(traffic.Profile) (*nicsim.Workload, error) {
		return nil, errBoom
	}
	if _, err := NewTrainer(tb, DefaultTrainConfig()).TrainSource("boom", src, nil); err == nil {
		t.Fatal("expected source error to propagate")
	}
}

type boomErr struct{}

func (boomErr) Error() string { return "boom" }

var errBoom = boomErr{}

func TestTrainOnPensando(t *testing.T) {
	tb := testbed.New(nicsim.Pensando(), 63)
	cfg := DefaultTrainConfig()
	cfg.Plan = nil
	m, err := NewTrainer(tb, cfg).Train("Firewall")
	if err != nil {
		t.Fatal(err)
	}
	if m.Solo.Predict(traffic.Default) <= 0 {
		t.Fatal("degenerate solo model on Pensando")
	}
}

func TestTrafficAgnosticAblation(t *testing.T) {
	// The fixed-traffic ablation must train and predict, but its memory
	// model ignores profile features.
	tb := testbed.New(nicsim.BlueField2(), 64)
	cfg := DefaultTrainConfig()
	cfg.TrafficAware = false
	cfg.Plan = profiling.Random(80, 3)
	m, err := NewTrainer(tb, cfg).Train("FlowStats")
	if err != nil {
		t.Fatal(err)
	}
	if m.Mem.trafficAware {
		t.Fatal("ablation model claims traffic awareness")
	}
	comp := nicsim.Counters{L2CRD: 70e6, L2CWR: 30e6, MEMRD: 30e6, MEMWR: 12e6, WSS: 8 << 20}
	a := m.Mem.PredictRatio(comp, traffic.Default)
	b := m.Mem.PredictRatio(comp, traffic.Default.With(traffic.AttrFlows, 400000))
	if a != b {
		t.Fatal("traffic-agnostic model varied with profile")
	}
}

func TestFitMemModelRequiresSoloBaseline(t *testing.T) {
	samples := []MemSample{{Profile: traffic.Default, Throughput: 1e6}}
	if _, err := FitMemModel(samples, true, DefaultTrainConfig().GBR); err == nil {
		t.Fatal("expected missing-baseline error")
	}
}

func TestPredictionBottleneckDefaultsToCPU(t *testing.T) {
	m := &Model{
		Solo:   mustSolo(t),
		Mem:    nil,
		Accels: map[nicsim.AccelKind]*AccelModel{},
	}
	_ = m
	// A zero-solo model yields an empty prediction with the CPU default.
	zero := Prediction{Bottleneck: nicsim.ResCPU}
	if zero.Bottleneck != nicsim.ResCPU {
		t.Fatal("unexpected zero-value bottleneck")
	}
}

func mustSolo(t *testing.T) *SoloModel {
	t.Helper()
	s, err := FitSoloModel([]SoloSample{
		{Profile: traffic.Default, Throughput: 1e6},
		{Profile: traffic.Default.With(traffic.AttrFlows, 100000), Throughput: 0.5e6},
	}, DefaultTrainConfig().GBR)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
