package traffic

import (
	"math"
	"testing"

	"repro/internal/packet"
	"repro/internal/patmatch"
	"repro/internal/sim"
)

func TestDefaultProfileVector(t *testing.T) {
	v := Default.Vector()
	want := []float64{16000, 1500, 600}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("Vector = %v, want %v", v, want)
		}
	}
}

func TestProfileWithGetRoundTrip(t *testing.T) {
	p := Default
	for a := Attribute(0); a < NumAttributes; a++ {
		lo, hi := a.Bounds()
		if lo >= hi {
			t.Fatalf("%v bounds inverted: [%v,%v]", a, lo, hi)
		}
		q := p.With(a, hi)
		if got := q.Get(a); got != hi && a != AttrPktSize {
			t.Errorf("With/Get %v: got %v want %v", a, got, hi)
		}
	}
}

func TestProfileWithClampsPktSize(t *testing.T) {
	p := Default.With(AttrPktSize, 10)
	if p.PktSize != MinPktSize {
		t.Fatalf("PktSize = %d, want clamped to %d", p.PktSize, MinPktSize)
	}
}

func TestAttributeString(t *testing.T) {
	if AttrFlows.String() != "flows" || AttrMTBR.String() != "mtbr" {
		t.Fatal("attribute names wrong")
	}
}

func TestRandomProfileInBounds(t *testing.T) {
	rng := sim.NewRNG(1)
	for i := 0; i < 200; i++ {
		p := Random(rng)
		fl, fh := AttrFlows.Bounds()
		if float64(p.Flows) < fl || float64(p.Flows) >= fh {
			t.Fatalf("flows %d out of bounds", p.Flows)
		}
		sl, sh := AttrPktSize.Bounds()
		if float64(p.PktSize) < sl || float64(p.PktSize) >= sh {
			t.Fatalf("pktsize %d out of bounds", p.PktSize)
		}
		ml, mh := AttrMTBR.Bounds()
		if p.MTBR < ml || p.MTBR >= mh {
			t.Fatalf("mtbr %v out of bounds", p.MTBR)
		}
	}
}

func TestEvalProfilesContainsDefault(t *testing.T) {
	ps := EvalProfiles()
	if len(ps) != 9 {
		t.Fatalf("len = %d, want 9 (paper: 9 distinct profiles)", len(ps))
	}
	if ps[0] != Default {
		t.Fatal("first eval profile is not the default")
	}
}

func TestFullGridSize(t *testing.T) {
	g := FullGrid(16, 200)
	if len(g) != 3200 {
		t.Fatalf("grid size %d, want 3200 (paper's 3200x cost)", len(g))
	}
}

func TestGeneratorFlowCount(t *testing.T) {
	g := NewGenerator(Profile{Flows: 100, PktSize: 256, MTBR: 0}, sim.NewRNG(2))
	if g.NumFlows() != 100 {
		t.Fatalf("NumFlows = %d", g.NumFlows())
	}
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		seen[g.Packet().Tuple.String()] = true
	}
	// Uniform draws over 100 flows in 2000 packets should hit most flows.
	if len(seen) < 90 {
		t.Fatalf("saw only %d distinct flows", len(seen))
	}
}

func TestGeneratorPacketSize(t *testing.T) {
	g := NewGenerator(Profile{Flows: 10, PktSize: 512, MTBR: 600}, sim.NewRNG(3))
	for i := 0; i < 50; i++ {
		p := g.Packet()
		if p.Len() != 512 {
			t.Fatalf("packet len %d, want 512", p.Len())
		}
		if err := p.Parse(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHeaderBurstCoversFlowsInOrder(t *testing.T) {
	const flows = 2*burstSize + 6
	g := NewGenerator(Profile{Flows: flows, PktSize: 512, MTBR: 600}, sim.NewRNG(8))
	quiet := NewGenerator(Profile{Flows: flows, PktSize: 512, MTBR: 600}, sim.NewRNG(8))
	var seen []packet.FiveTuple
	for first := 0; first < flows; first += burstSize {
		burst := g.HeaderBurst(first)
		if want := min(burstSize, flows-first); len(burst) != want {
			t.Fatalf("burst at flow %d holds %d packets, want %d", first, len(burst), want)
		}
		for i := range burst {
			p := &burst[i]
			if want := packet.Build(p.Tuple, MinPktSize, nil); string(p.Data) != string(want.Data) || p.PayloadOff != want.PayloadOff {
				t.Fatalf("flow %d: header frame is not a fresh minimum-size frame", first+i)
			}
			seen = append(seen, p.Tuple)
			// What an NF may do to a frame must not leak into the next burst.
			p.SetSrcIP(0xc6336401)
			p.DecTTL()
		}
	}
	if len(g.HeaderBurst(flows)) != 0 {
		t.Fatal("burst past the last flow is not empty")
	}
	for i, tp := range seen {
		if tp != g.flows[i] {
			t.Fatalf("burst packet %d carries flow %v, want flow %d = %v", i, tp, i, g.flows[i])
		}
	}
	// Header packets draw nothing: the full packets that follow are the
	// ones a generator that never built a burst produces.
	if string(g.Packet().Data) != string(quiet.Packet().Data) {
		t.Fatal("HeaderBurst advanced the generator's RNG")
	}
}

func TestGeneratorClampsDegenerate(t *testing.T) {
	g := NewGenerator(Profile{Flows: 0, PktSize: 1}, sim.NewRNG(4))
	if g.NumFlows() != 1 {
		t.Fatalf("NumFlows = %d, want 1", g.NumFlows())
	}
	if g.Profile().PktSize != MinPktSize {
		t.Fatalf("PktSize = %d, want %d", g.Profile().PktSize, MinPktSize)
	}
	if p := g.Packet(); p.Len() != MinPktSize {
		t.Fatalf("packet len %d", p.Len())
	}
}

func TestSynthPayloadMTBRAccuracy(t *testing.T) {
	m := patmatch.CompileDefault()
	rng := sim.NewRNG(5)
	for _, target := range []float64{100, 600, 1000} {
		var bytes, matches int
		for i := 0; i < 400; i++ {
			pl := SynthPayload(1460, target, rng)
			bytes += len(pl)
			matches += m.Count(pl)
		}
		got := float64(matches) / float64(bytes) * 1e6
		if math.Abs(got-target)/target > 0.15 {
			t.Errorf("target MTBR %v: measured %v", target, got)
		}
	}
}

func TestSynthPayloadZeroMTBRNoMatches(t *testing.T) {
	m := patmatch.CompileDefault()
	rng := sim.NewRNG(6)
	for i := 0; i < 100; i++ {
		if n := m.Count(SynthPayload(1460, 0, rng)); n != 0 {
			t.Fatalf("filler produced %d matches", n)
		}
	}
}

func TestSynthPayloadTiny(t *testing.T) {
	rng := sim.NewRNG(7)
	if got := len(SynthPayload(2, 600, rng)); got != 2 {
		t.Fatalf("len = %d", got)
	}
	if got := len(SynthPayload(0, 600, rng)); got != 0 {
		t.Fatalf("len = %d", got)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(Default, sim.NewRNG(42))
	b := NewGenerator(Default, sim.NewRNG(42))
	for i := 0; i < 10; i++ {
		if string(a.Packet().Data) != string(b.Packet().Data) {
			t.Fatalf("packet %d differs between identical seeds", i)
		}
	}
}
