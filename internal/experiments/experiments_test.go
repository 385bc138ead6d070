package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/israce"
	"repro/internal/nicsim"
	"repro/internal/traffic"
)

// tinyLab keeps experiment smoke tests fast.
func tinyLab() *Lab { return NewLab(51, 0.05) }

func TestFig4EquilibriumShape(t *testing.T) {
	l := tinyLab()
	rep, err := Fig4(l)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "regex-NF@194m/MB") {
		t.Fatalf("missing series:\n%s", rep)
	}
}

func TestFig5Patterns(t *testing.T) {
	l := tinyLab()
	rep, err := Fig5(l)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	if !strings.Contains(s, "pipeline p-NF") || !strings.Contains(s, "run-to-completion r-NF") {
		t.Fatalf("missing sections:\n%s", s)
	}
}

func TestFig6Shape(t *testing.T) {
	l := tinyLab()
	rep, err := Fig6(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) < 10 {
		t.Fatalf("thin report:\n%s", rep)
	}
}

func TestFig1Runs(t *testing.T) {
	l := tinyLab()
	rep, err := Fig1(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) < 11 { // header + sep + 9 NFs
		t.Fatalf("unexpected row count:\n%s", rep)
	}
}

func TestTable4CompositionOrdering(t *testing.T) {
	l := tinyLab()
	rep, err := Table4(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) != 6 { // header + sep + 4 rows
		t.Fatalf("unexpected table:\n%s", rep)
	}
}

// TestTable7DiagnosisBeatsBaseline: on every NF Yala identifies the
// bottleneck at least as often as memory-only SLOMO, and more often on
// one or more — SLOMO cannot see the accelerator side at all.
func TestTable7DiagnosisBeatsBaseline(t *testing.T) {
	l := tinyLab()
	rep, err := Table7(l)
	if err != nil {
		t.Fatal(err)
	}
	rows, better := 0, 0
	for _, line := range rep.Lines {
		f := strings.Fields(line)
		if len(f) != 3 {
			continue
		}
		slomo, errS := strconv.ParseFloat(f[1], 64)
		yala, errY := strconv.ParseFloat(f[2], 64)
		if errS != nil || errY != nil {
			continue
		}
		rows++
		if yala < slomo {
			t.Errorf("%s: Yala %.1f%% correct, below SLOMO's %.1f%%", f[0], yala, slomo)
		}
		if yala > slomo {
			better++
		}
	}
	if rows != 3 || better == 0 {
		t.Fatalf("want 3 NF rows with Yala ahead on one or more, got %d rows, %d ahead:\n%s", rows, better, rep)
	}
}

func TestTable9Pensando(t *testing.T) {
	rep, err := Table9(51, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "Firewall") {
		t.Fatalf("missing Firewall row:\n%s", rep)
	}
}

// TestRunIndependentOfOrder: through Run an experiment's report does not
// depend on what ran before it.
func TestRunIndependentOfOrder(t *testing.T) {
	alone, err := Run("fig4", 51, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run("fig1", 51, 0.05); err != nil {
		t.Fatal(err)
	}
	after, err := Run("fig4", 51, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if alone.String() != after.String() {
		t.Fatalf("fig4 after fig1 differs from fig4 alone:\n%s\nvs\n%s", after, alone)
	}
}

// TestTable6Deterministic: Table 6's strategies share one simulator
// whose testbed numbers its runs in call order, so two runs at one seed
// must print the same report byte for byte.
func TestTable6Deterministic(t *testing.T) {
	if israce.Enabled {
		t.Skip("two full trainings on one goroutine; the race detector adds minutes and finds nothing here")
	}
	first, err := Run("table6", 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run("table6", 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("table6 differs between two runs at one seed:\n%s\nvs\n%s", first, second)
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID(tinyLab(), "fig99"); err == nil {
		t.Fatal("expected error")
	}
}

func TestIDsComplete(t *testing.T) {
	if len(IDs()) != 16 {
		t.Fatalf("IDs() = %v", IDs())
	}
}

func TestSynthSourceTrafficDependence(t *testing.T) {
	src := synthSource(synthBuilders["NF2"], nicsim.Pipeline)
	lo, err := src(traffic.Profile{Flows: 16000, PktSize: 256, MTBR: 100})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := src(traffic.Profile{Flows: 16000, PktSize: 1500, MTBR: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if hi.Accel[nicsim.AccelRegex].MatchesPerReq <= lo.Accel[nicsim.AccelRegex].MatchesPerReq {
		t.Fatal("regex matches insensitive to MTBR")
	}
	if hi.Accel[nicsim.AccelCompress].BytesPerReq <= lo.Accel[nicsim.AccelCompress].BytesPerReq {
		t.Fatal("compression bytes insensitive to packet size")
	}
}
