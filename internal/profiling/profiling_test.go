package profiling

import (
	"math"
	"testing"

	"repro/internal/testbed"
	"repro/internal/traffic"
)

// flowSensitiveOracle mimics a FlowStats-like NF: solo throughput depends
// only on flow count, with an LLC-saturation knee.
func flowSensitiveOracle(p traffic.Profile) (float64, error) {
	f := float64(p.Flows)
	t := 2e6 - 1.4e6*math.Min(f, 80000)/80000
	return t, nil
}

// insensitiveOracle is flat in every attribute (ACL-like).
func insensitiveOracle(traffic.Profile) (float64, error) { return 1.5e6, nil }

func TestAdaptivePrunesInsensitiveAttributes(t *testing.T) {
	plan, err := Adaptive(flowSensitiveOracle, DefaultConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Attributes) != 1 || plan.Attributes[0] != traffic.AttrFlows {
		t.Fatalf("kept attributes %v, want [flows]", plan.Attributes)
	}
	// Pruned attributes must stay at their defaults in every sample.
	for _, s := range plan.Samples {
		if s.Profile.PktSize != traffic.Default.PktSize || s.Profile.MTBR != traffic.Default.MTBR {
			t.Fatalf("pruned attribute varied: %v", s.Profile)
		}
	}
}

func TestAdaptiveRespectsQuota(t *testing.T) {
	for _, quota := range []int{10, 50, 333} {
		plan, err := Adaptive(flowSensitiveOracle, DefaultConfig(quota))
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Samples) != quota {
			t.Fatalf("cost %d, want quota %d", len(plan.Samples), quota)
		}
	}
}

func TestAdaptiveTargetsSensitiveRange(t *testing.T) {
	plan, err := Adaptive(flowSensitiveOracle, DefaultConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	// The oracle's knee is at 80K flows; most samples should sit below
	// 160K where the throughput actually changes.
	low := 0
	for _, s := range plan.Samples {
		if s.Profile.Flows <= 160000 {
			low++
		}
	}
	if frac := float64(low) / float64(len(plan.Samples)); frac < 0.5 {
		t.Fatalf("only %.0f%% of samples in the sensitive range", frac*100)
	}
}

func TestAdaptiveInsensitiveNFSamplesDefaultProfile(t *testing.T) {
	plan, err := Adaptive(insensitiveOracle, DefaultConfig(50))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Attributes) != 0 {
		t.Fatalf("kept %v for an insensitive NF", plan.Attributes)
	}
	for _, s := range plan.Samples {
		if s.Profile != traffic.Default {
			t.Fatalf("sample at %v, want default profile", s.Profile)
		}
	}
	if len(plan.Samples) != 50 {
		t.Fatalf("cost %d", len(plan.Samples))
	}
}

func TestAdaptiveSoloObsRecorded(t *testing.T) {
	plan, err := Adaptive(flowSensitiveOracle, DefaultConfig(60))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.SoloObs) < 5 {
		t.Fatalf("only %d solo observations recorded", len(plan.SoloObs))
	}
}

func TestAdaptiveErrors(t *testing.T) {
	if _, err := Adaptive(flowSensitiveOracle, DefaultConfig(0)); err == nil {
		t.Fatal("expected quota error")
	}
	zero := func(traffic.Profile) (float64, error) { return 0, nil }
	if _, err := Adaptive(zero, DefaultConfig(10)); err == nil {
		t.Fatal("expected zero-throughput error")
	}
}

func TestRandomPlan(t *testing.T) {
	plan := Random(100, 3)
	if len(plan.Samples) != 100 {
		t.Fatalf("cost %d", len(plan.Samples))
	}
	distinct := map[traffic.Profile]bool{}
	for _, s := range plan.Samples {
		distinct[s.Profile] = true
		b := testbed.MemContentionBounds
		if s.Contention.CAR < b.CARLo || s.Contention.CAR >= b.CARHi {
			t.Fatalf("contention CAR out of bounds: %v", s.Contention)
		}
	}
	if len(distinct) < 90 {
		t.Fatalf("random plan reused profiles: %d distinct", len(distinct))
	}
}

func TestFullPlan(t *testing.T) {
	grid := traffic.FullGrid(4, 5)
	plan := Full(grid, 3, 1)
	if len(plan.Samples) != 60 {
		t.Fatalf("cost %d, want 60", len(plan.Samples))
	}
}

func TestContentionSequenceCoversCorners(t *testing.T) {
	plan, err := Adaptive(flowSensitiveOracle, DefaultConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	b := testbed.MemContentionBounds
	highCorner := false
	for _, s := range plan.Samples {
		if s.Contention.CAR > 0.9*(b.CARHi-b.CARLo)+b.CARLo &&
			s.Contention.WSS > 0.9*(b.WSSHi-b.WSSLo)+b.WSSLo {
			highCorner = true
		}
	}
	if !highCorner {
		t.Fatal("no sample near the high-contention corner")
	}
}
