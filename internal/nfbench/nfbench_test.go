package nfbench

import (
	"math"
	"testing"

	"repro/internal/nicsim"
)

func TestMemBenchTargetsCAR(t *testing.T) {
	nic := nicsim.New(nicsim.BlueField2(), 1)
	for _, target := range []float64{50e6, 120e6, 200e6} {
		ms, err := nic.Run(MemBench(target, 4<<20))
		if err != nil {
			t.Fatal(err)
		}
		m := ms[0]
		got := m.Counters.L2CRD + m.Counters.L2CWR
		if rel := math.Abs(got-target) / target; rel > 0.10 {
			t.Errorf("target CAR %.0fM: achieved %.0fM (%.0f%% off)",
				target/1e6, got/1e6, rel*100)
		}
	}
}

func TestMemBenchSelfLimitsAtExtremeWSS(t *testing.T) {
	// A giant working set with a huge CAR target cannot be met; the bench
	// must degrade gracefully rather than error.
	nic := nicsim.New(nicsim.BlueField2(), 2)
	ms, err := nic.Run(MemBench(500e6, 64<<20))
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	if m.Counters.L2CRD+m.Counters.L2CWR >= 500e6 {
		t.Fatal("physically impossible CAR achieved")
	}
	if m.Counters.L2CRD+m.Counters.L2CWR <= 0 {
		t.Fatal("bench produced no traffic")
	}
}

func TestRegexBenchMatchScaling(t *testing.T) {
	w := RegexBench(1e6, 1000, 2000, 1)
	u := w.Accel[nicsim.AccelRegex]
	if u.MatchesPerReq != 2 { // 2000 matches/MB * 1000B
		t.Fatalf("MatchesPerReq = %v, want 2", u.MatchesPerReq)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRegexBenchAchievesRate(t *testing.T) {
	nic := nicsim.New(nicsim.BlueField2(), 3)
	ms, err := nic.Run(RegexBench(0.5e6, 1000, 600, 1))
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	st := m.AccelStats[nicsim.AccelRegex]
	if rel := math.Abs(st.RequestRate-0.5e6) / 0.5e6; rel > 0.1 {
		t.Fatalf("request rate %v, want ~0.5e6", st.RequestRate)
	}
}

func TestCompressBenchUsesCompressor(t *testing.T) {
	nic := nicsim.New(nicsim.BlueField2(), 4)
	ms, err := nic.Run(CompressBench(0.4e6, 1400, 1))
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	if _, ok := m.AccelStats[nicsim.AccelCompress]; !ok {
		t.Fatal("no compression stats")
	}
}

func TestRegexNFSaturates(t *testing.T) {
	nic := nicsim.New(nicsim.BlueField2(), 5)
	ms, err := nic.Run(RegexNF(4096, 400, 1))
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	if m.Bottleneck != nicsim.ResRegex {
		t.Fatalf("regex-NF bottleneck %v, want regex", m.Bottleneck)
	}
}

func TestSyntheticSpecBuild(t *testing.T) {
	for _, pattern := range []nicsim.ExecPattern{nicsim.Pipeline, nicsim.RunToCompletion} {
		for _, w := range []*nicsim.Workload{NF1(pattern), NF2(pattern)} {
			if err := w.Validate(); err != nil {
				t.Fatalf("%s/%v: %v", w.Name, pattern, err)
			}
			if w.Pattern != pattern {
				t.Fatalf("%s pattern %v", w.Name, w.Pattern)
			}
		}
	}
	if !NF2(nicsim.Pipeline).UsesAccel(nicsim.AccelCompress) {
		t.Fatal("NF2 must use the compression accelerator")
	}
	if NF1(nicsim.Pipeline).UsesAccel(nicsim.AccelCompress) {
		t.Fatal("NF1 must not use the compression accelerator")
	}
}

func TestPNFAndRNFDifferOnlyInPattern(t *testing.T) {
	p, r := PNF(), RNF()
	if p.Pattern == r.Pattern {
		t.Fatal("patterns identical")
	}
	if p.CPUSecPerPkt != r.CPUSecPerPkt || p.MemRefsPerPkt != r.MemRefsPerPkt ||
		p.WSSBytes != r.WSSBytes {
		t.Fatal("resource demands differ between p-NF and r-NF")
	}
}

func TestFig5PatternDivergence(t *testing.T) {
	// Under regex-heavy contention the pipeline NF should hold up better
	// than its run-to-completion twin under additional memory load
	// (Fig. 5's qualitative claim).
	nic := nicsim.New(nicsim.BlueField2(), 6)
	regexB := RegexBench(0.4e6, 1000, 2000, 1)
	memB := MemBench(120e6, 8<<20)

	pm, err := nic.Run(PNF(), regexB, memB)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := nic.Run(RNF(), regexB, memB)
	if err != nil {
		t.Fatal(err)
	}
	if pm[0].Throughput <= rm[0].Throughput {
		t.Fatalf("pipeline %.0f should beat RTC %.0f under combined contention",
			pm[0].Throughput, rm[0].Throughput)
	}
}
