package core

import (
	"testing"

	"repro/internal/nfbench"
	"repro/internal/nicsim"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

func quickTrainConfig() TrainConfig {
	cfg := DefaultTrainConfig()
	cfg.PatternProbes = 2
	return cfg
}

func trainModel(t *testing.T, tb *testbed.Testbed, name string) *Model {
	t.Helper()
	m, err := NewTrainer(tb, quickTrainConfig()).Train(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTrainFlowStatsPredictsMemContention(t *testing.T) {
	tb := testbed.New(nicsim.BlueField2(), 11)
	model := trainModel(t, tb, "FlowStats")

	if len(model.Accels) != 0 {
		t.Fatal("FlowStats should have no accelerator models")
	}

	// Held-out contention levels at the default profile.
	w, err := tb.Workload("FlowStats", traffic.Default)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for _, c := range []testbed.MemContention{
		{CAR: 40e6, WSS: 2 << 20},
		{CAR: 120e6, WSS: 8 << 20},
		{CAR: 200e6, WSS: 14 << 20},
	} {
		truth, err := tb.WithMemBench(w, c.CAR, c.WSS)
		if err != nil {
			t.Fatal(err)
		}
		comp := CompetitorFromMeasurement(truthCompetitor(tb, t, c))
		pred := model.Predict(traffic.Default, []Competitor{comp})
		rel := rel(pred.Throughput, truth.Throughput)
		if rel > worst {
			worst = rel
		}
	}
	if worst > 0.15 {
		t.Fatalf("worst relative error %.1f%% above 15%%", worst*100)
	}
}

// truthCompetitor measures mem-bench solo so the predictor sees its
// counters (the operator's offline profile of the contender).
func truthCompetitor(tb *testbed.Testbed, t *testing.T, c testbed.MemContention) nicsim.Measurement {
	t.Helper()
	m, err := tb.RunSolo(nfbench.MemBench(c.CAR, c.WSS))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func rel(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}

func TestTrainFlowMonitorHasRegexModelAndPattern(t *testing.T) {
	tb := testbed.New(nicsim.BlueField2(), 12)
	model := trainModel(t, tb, "FlowMonitor")

	am, ok := model.Accels[nicsim.AccelRegex]
	if !ok {
		t.Fatal("FlowMonitor missing regex model")
	}
	if am.T0 <= 0 || am.A <= 0 {
		t.Fatalf("implausible regex fit: t0=%v a=%v", am.T0, am.A)
	}
	if am.Queues != 2 {
		t.Fatalf("queues = %v, want 2 (one per worker core)", am.Queues)
	}
	if model.Pattern != nicsim.Pipeline {
		t.Fatalf("pattern = %v, want pipeline", model.Pattern)
	}
	// Service time must grow with MTBR and predict lower stage rates.
	if am.PacketRate(1000, nil) >= am.PacketRate(100, nil) {
		t.Fatal("regex stage rate should fall with MTBR")
	}
}

func TestTrainNIDSPatternRTC(t *testing.T) {
	tb := testbed.New(nicsim.BlueField2(), 13)
	model := trainModel(t, tb, "NIDS")
	if _, ok := model.Accels[nicsim.AccelRegex]; !ok {
		t.Fatal("NIDS missing regex model")
	}
	if model.Pattern != nicsim.RunToCompletion {
		t.Fatalf("pattern = %v, want run-to-completion", model.Pattern)
	}
}

func TestPredictMultiResourceContention(t *testing.T) {
	tb := testbed.New(nicsim.BlueField2(), 14)
	model := trainModel(t, tb, "FlowMonitor")

	w, err := tb.Workload("FlowMonitor", traffic.Default)
	if err != nil {
		t.Fatal(err)
	}
	memB := nfbench.MemBench(100e6, 8<<20)
	regexB := nfbench.RegexBench(1e6, 1000, 2000, 1)

	truth, err := tb.Run(w, memB, regexB)
	if err != nil {
		t.Fatal(err)
	}
	memSolo, err := tb.RunSolo(memB)
	if err != nil {
		t.Fatal(err)
	}
	regexSolo, err := tb.RunSolo(regexB)
	if err != nil {
		t.Fatal(err)
	}
	pred := model.Predict(traffic.Default, []Competitor{
		CompetitorFromMeasurement(memSolo),
		CompetitorFromMeasurement(regexSolo),
	})
	if e := rel(pred.Throughput, truth[0].Throughput); e > 0.2 {
		t.Fatalf("multi-resource prediction error %.1f%% (pred %.0f truth %.0f)",
			e*100, pred.Throughput, truth[0].Throughput)
	}
	if pred.PerResource[nicsim.ResMemory] <= 0 || pred.PerResource[nicsim.ResRegex] <= 0 {
		t.Fatalf("per-resource breakdown missing: %+v", pred.PerResource)
	}
}

func TestPredictTrafficAwareness(t *testing.T) {
	tb := testbed.New(nicsim.BlueField2(), 15)
	model := trainModel(t, tb, "FlowStats")

	// Solo prediction should fall as flow count rises well past the LLC.
	lo := model.Solo.Predict(traffic.Default.With(traffic.AttrFlows, 4000))
	hi := model.Solo.Predict(traffic.Default.With(traffic.AttrFlows, 400000))
	if hi >= lo {
		t.Fatalf("solo model insensitive to flows: %v vs %v", lo, hi)
	}
}

func TestPredictNoCompetitors(t *testing.T) {
	tb := testbed.New(nicsim.BlueField2(), 16)
	model := trainModel(t, tb, "FlowStats")
	pred := model.Predict(traffic.Default, nil)
	if rel(pred.Throughput, pred.Solo) > 0.1 {
		t.Fatalf("no-contention prediction %v far from solo %v", pred.Throughput, pred.Solo)
	}
}

func TestPredictWithCompositionBaselines(t *testing.T) {
	tb := testbed.New(nicsim.BlueField2(), 17)
	model := trainModel(t, tb, "FlowMonitor")
	comp := Competitor{Counters: nicsim.Counters{L2CRD: 70e6, L2CWR: 30e6, MEMRD: 20e6, MEMWR: 9e6, WSS: 8 << 20}}
	sum := model.PredictWith(ComposeSum, traffic.Default, []Competitor{comp})
	min := model.PredictWith(ComposeMin, traffic.Default, []Competitor{comp})
	if sum.Throughput > min.Throughput {
		t.Fatalf("sum composition %v should not exceed min %v", sum.Throughput, min.Throughput)
	}
}

// TestYalaDiagnosisShiftsWithMTBR is the paper's diagnosis use case
// (§7.5.2) on the predictor itself: as MTBR sweeps under fixed memory and
// regex contention, the simulator's bottleneck moves between the memory
// subsystem and the regex engine, and the prediction's Bottleneck tracks
// it.
func TestYalaDiagnosisShiftsWithMTBR(t *testing.T) {
	tb := testbed.New(nicsim.BlueField2(), 41)
	model, err := NewTrainer(tb, DefaultTrainConfig()).Train("FlowMonitor")
	if err != nil {
		t.Fatal(err)
	}
	memB := nfbench.MemBench(120e6, 10<<20)
	regexB := nfbench.RegexBench(0.58e6, 1000, 2000, 1)
	memSolo, err := tb.RunSolo(memB)
	if err != nil {
		t.Fatal(err)
	}
	regexSolo, err := tb.RunSolo(regexB)
	if err != nil {
		t.Fatal(err)
	}
	comps := []Competitor{CompetitorFromMeasurement(memSolo), CompetitorFromMeasurement(regexSolo)}

	mtbrs := []float64{40, 80, 800, 1000, 1100}
	seen := map[nicsim.Resource]bool{}
	var actual, predicted []nicsim.Resource
	correct := 0
	for _, mtbr := range mtbrs {
		prof := traffic.Default.With(traffic.AttrMTBR, mtbr)
		w, err := tb.Workload("FlowMonitor", prof)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := tb.Run(w, memB, regexB)
		if err != nil {
			t.Fatal(err)
		}
		got := model.Predict(prof, comps).Bottleneck
		actual, predicted = append(actual, ms[0].Bottleneck), append(predicted, got)
		seen[ms[0].Bottleneck] = true
		if got == ms[0].Bottleneck {
			correct++
		}
	}
	// The bottleneck must actually shift across the sweep (ground truth),
	// and Yala should track it with high accuracy.
	if len(seen) < 2 {
		t.Fatalf("ground-truth bottleneck never shifted: %v", actual)
	}
	if acc := 100 * float64(correct) / float64(len(mtbrs)); acc < 80 {
		t.Fatalf("Yala diagnosis accuracy %.0f%%: predicted %v, actual %v", acc, predicted, actual)
	}
}
