package core

import (
	"math"
	"testing"

	"repro/internal/nicsim"
	"repro/internal/traffic"
)

func testAccelModel() *AccelModel {
	return &AccelModel{
		Queues: 1, T0: 200e-9, A: 0.4e-9, Attr: traffic.AttrMTBR, ReqsPerPkt: 1,
	}
}

func TestAccelServiceSecLinear(t *testing.T) {
	m := testAccelModel()
	if got := m.ServiceSec(0); got != 200e-9 {
		t.Fatalf("t(0) = %v", got)
	}
	want := 200e-9 + 0.4e-9*600
	if got := m.ServiceSec(600); math.Abs(got-want) > 1e-15 {
		t.Fatalf("t(600) = %v, want %v", got, want)
	}
}

func TestAccelSoloRate(t *testing.T) {
	m := testAccelModel()
	want := 1 / m.ServiceSec(600)
	if got := m.PacketRate(600, nil); math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("solo rate = %v, want %v", got, want)
	}
}

func TestAccelEquilibriumEqualQueues(t *testing.T) {
	// Eq. (1): equal queue counts at saturation share equally regardless
	// of each side's service time.
	m := testAccelModel()
	comp := AccelLoad{Queues: 1, ServiceSec: 900e-9} // saturating (OfferedReq 0)
	ti := m.ServiceSec(600)
	want := 1 / (ti + 900e-9)
	if got := m.PacketRate(600, []AccelLoad{comp}); math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("equilibrium = %v, want %v", got, want)
	}
}

func TestAccelLinearDeclineThenFloor(t *testing.T) {
	// Fig. 4's shape out of the analytic model.
	m := testAccelModel()
	ti := m.ServiceSec(600)
	tb := 500e-9
	eq := 1 / (ti + tb)
	var prev float64 = math.Inf(1)
	for _, lam := range []float64{0.1e6, 0.4e6, 0.8e6, 1.2e6, 3e6, 10e6} {
		got := m.PacketRate(600, []AccelLoad{{Queues: 1, ServiceSec: tb, OfferedReq: lam}})
		if got > prev+1e-9 {
			t.Fatalf("rate increased with competitor load")
		}
		if got < eq-1e-9 {
			t.Fatalf("rate %v fell below equilibrium floor %v", got, eq)
		}
		prev = got
	}
	// Deep saturation must sit exactly at the floor.
	got := m.PacketRate(600, []AccelLoad{{Queues: 1, ServiceSec: tb, OfferedReq: 100e6}})
	if math.Abs(got-eq)/eq > 1e-9 {
		t.Fatalf("saturated rate %v, want floor %v", got, eq)
	}
}

func TestAccelQueueWeighting(t *testing.T) {
	// Target with 3 queues vs saturating 1-queue competitor: target gets
	// 3x the competitor's share.
	m := testAccelModel()
	m.Queues = 3
	ti := m.ServiceSec(0)
	comp := AccelLoad{Queues: 1, ServiceSec: ti}
	got := m.PacketRate(0, []AccelLoad{comp})
	want := 3 / (4 * ti)
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("3-queue rate %v, want %v", got, want)
	}
}

func TestAccelReqsPerPktScaling(t *testing.T) {
	m := testAccelModel()
	m.ReqsPerPkt = 2
	if got, want := m.PacketRate(0, nil), 1/(2*m.ServiceSec(0)); math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("2 reqs/pkt rate %v, want %v", got, want)
	}
}

func TestFitAccelModelRecoversParameters(t *testing.T) {
	// Synthesize equilibrium co-runs from known parameters and refit.
	trueT0, trueA, trueN := 300e-9, 0.5e-9, 1.0
	benchT, benchN := 700e-9, 1.0
	var samples []AccelSample
	for _, mtbr := range []float64{100, 400, 700, 1000} {
		ti := trueT0 + trueA*mtbr
		round := trueN*ti + benchN*benchT
		samples = append(samples, AccelSample{
			Attr:            mtbr,
			TargetRate:      trueN / round,
			BenchRate:       benchN / round,
			BenchServiceSec: benchT,
			BenchQueues:     benchN,
		})
	}
	m, err := FitAccelModel(samples, traffic.AttrMTBR, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Queues != 1 {
		t.Fatalf("queues = %v", m.Queues)
	}
	if math.Abs(m.T0-trueT0)/trueT0 > 0.02 || math.Abs(m.A-trueA)/trueA > 0.02 {
		t.Fatalf("fit (%v, %v), want (%v, %v)", m.T0, m.A, trueT0, trueA)
	}
}

func TestFitAccelModelMultiQueue(t *testing.T) {
	trueT0, trueN := 300e-9, 3.0
	benchT := 500e-9
	var samples []AccelSample
	for _, mtbr := range []float64{100, 900} {
		ti := trueT0 + 0.2e-9*mtbr
		round := trueN*ti + benchT
		samples = append(samples, AccelSample{
			Attr: mtbr, TargetRate: trueN / round, BenchRate: 1 / round,
			BenchServiceSec: benchT, BenchQueues: 1,
		})
	}
	m, err := FitAccelModel(samples, traffic.AttrMTBR, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Queues != 3 {
		t.Fatalf("queues = %v, want 3", m.Queues)
	}
}

func TestFitAccelModelErrors(t *testing.T) {
	if _, err := FitAccelModel(nil, traffic.AttrMTBR, 1); err == nil {
		t.Fatal("expected error for no samples")
	}
	bad := []AccelSample{{Attr: 1}, {Attr: 2}}
	if _, err := FitAccelModel(bad, traffic.AttrMTBR, 1); err == nil {
		t.Fatal("expected error for zero rates")
	}
}

func TestAttrFor(t *testing.T) {
	if AttrFor(nicsim.AccelRegex) != traffic.AttrMTBR {
		t.Fatal("regex attr wrong")
	}
	if AttrFor(nicsim.AccelCompress) != traffic.AttrPktSize {
		t.Fatal("compress attr wrong")
	}
}
