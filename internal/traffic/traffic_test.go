package traffic

import (
	"hash/fnv"
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

// TestFlowKeysCoverFlowsInOrder: consecutive FlowKeys calls yield every
// flow's key, Flow(i).Hash(), in flow order, full bursts then a short
// tail, nothing past the last flow — and draw nothing from the RNG.
func TestFlowKeysCoverFlowsInOrder(t *testing.T) {
	const burst, flows = 32, 2*32 + 6
	g := NewGenerator(Profile{Flows: flows, PktSize: 512, MTBR: 600}, sim.NewRNG(8))
	quiet := NewGenerator(Profile{Flows: flows, PktSize: 512, MTBR: 600}, sim.NewRNG(8))
	var buf [burst]uint64
	var seen []uint64
	for first := 0; first < flows; first += burst {
		keys := g.FlowKeys(first, buf[:])
		if want := min(burst, flows-first); len(keys) != want {
			t.Fatalf("keys from flow %d: %d, want %d", first, len(keys), want)
		}
		seen = append(seen, keys...)
	}
	if len(g.FlowKeys(flows, buf[:])) != 0 {
		t.Fatal("keys past the last flow are not empty")
	}
	for i, key := range seen {
		if want := g.Flow(i).Hash(); key != want {
			t.Fatalf("key %d = %#x, want flow %d's %#x", i, key, i, want)
		}
	}
	// Keys draw nothing: the full packets that follow are the ones a
	// generator that never computed a key produces.
	if string(g.Packet().Data) != string(quiet.Packet().Data) {
		t.Fatal("FlowKeys advanced the generator's RNG")
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

// pinnedPacket is one Packet() of a pinned stream: the flow it carries and
// the FNV-1a of its payload bytes.
type pinnedPacket struct {
	tuple      packet.FiveTuple
	payloadFNV uint64
}

// TestGeneratorStreamPinned pins the generator's output to literals — the
// tuples and keys of flows 0, 1, N/2 and N-1, the first three full packets, and the
// RNG draw that follows them — so the flow set, the draw order and the
// stream position after NewGenerator cannot move unnoticed.
func TestGeneratorStreamPinned(t *testing.T) {
	cases := []struct {
		prof    Profile
		seed    uint64
		flows   [4]packet.FiveTuple // flows 0, 1, N/2, N-1
		keys    [4]uint64           // their keys
		packets [3]pinnedPacket
		next    uint64
	}{
		{
			prof: Profile{Flows: 16000, PktSize: 1500, MTBR: 600}, seed: 0x2a,
			flows: [4]packet.FiveTuple{
				{SrcIP: 0x0aeb6e95, DstIP: 0xc0a8f103, SrcPort: 44882, DstPort: 25, Proto: 6},
				{SrcIP: 0x0a4823f2, DstIP: 0xc0a8db06, SrcPort: 25949, DstPort: 22, Proto: 6},
				{SrcIP: 0x0aca050c, DstIP: 0xc0a86b46, SrcPort: 39584, DstPort: 25, Proto: 6},
				{SrcIP: 0x0a5cff0e, DstIP: 0xc0a84103, SrcPort: 11115, DstPort: 53, Proto: 6},
			},
			keys: [4]uint64{0x0833a5a56aeab925, 0xaa752ec4ce69c613, 0x291407ebf797d69a, 0xf46386cf2f8e396b},
			packets: [3]pinnedPacket{
				{packet.FiveTuple{SrcIP: 0x0a034d55, DstIP: 0xc0a81dc6, SrcPort: 59361, DstPort: 22, Proto: 6}, 0xe815dc3339248876},
				{packet.FiveTuple{SrcIP: 0x0af5d96a, DstIP: 0xc0a86ab7, SrcPort: 7309, DstPort: 25, Proto: 6}, 0x7422c8406aa9d99a},
				{packet.FiveTuple{SrcIP: 0x0a4bdbe7, DstIP: 0xc0a8e03a, SrcPort: 6216, DstPort: 443, Proto: 6}, 0x6bd64fe0f043e3fe},
			},
			next: 0xa33523c8ffe74c8b,
		},
		{
			prof: Profile{Flows: 1000, PktSize: 64, MTBR: 0}, seed: 0x7,
			flows: [4]packet.FiveTuple{
				{SrcIP: 0x0a320dd7, DstIP: 0xc0a8661c, SrcPort: 58370, DstPort: 22, Proto: 6},
				{SrcIP: 0x0a1e21da, DstIP: 0xc0a8aa11, SrcPort: 24822, DstPort: 53, Proto: 6},
				{SrcIP: 0x0a178700, DstIP: 0xc0a89741, SrcPort: 40661, DstPort: 25, Proto: 6},
				{SrcIP: 0x0abbca83, DstIP: 0xc0a8bfb2, SrcPort: 45618, DstPort: 22, Proto: 6},
			},
			keys: [4]uint64{0xe564c5cf746fadf3, 0x3905d093a6301464, 0x00397e909f0a5817, 0x2a41340230fce4e8},
			packets: [3]pinnedPacket{
				{packet.FiveTuple{SrcIP: 0x0a5ea68b, DstIP: 0xc0a86ba8, SrcPort: 60741, DstPort: 53, Proto: 6}, 0xf2890226aeb2a9dd},
				{packet.FiveTuple{SrcIP: 0x0a5fab75, DstIP: 0xc0a8898e, SrcPort: 47130, DstPort: 22, Proto: 6}, 0xb9dd0e2c81a5f455},
				{packet.FiveTuple{SrcIP: 0x0a830cee, DstIP: 0xc0a895e2, SrcPort: 42077, DstPort: 25, Proto: 6}, 0x94548364679306f6},
			},
			next: 0x9742b209441f003e,
		},
		{
			prof: Profile{Flows: 250000, PktSize: 777, MTBR: 333.3}, seed: 0xdeadbeef,
			flows: [4]packet.FiveTuple{
				{SrcIP: 0x0ac9eb9b, DstIP: 0xc0a80922, SrcPort: 52253, DstPort: 25, Proto: 6},
				{SrcIP: 0x0a85bd1c, DstIP: 0xc0a85b3f, SrcPort: 27571, DstPort: 53, Proto: 6},
				{SrcIP: 0x0a4914d5, DstIP: 0xc0a8607e, SrcPort: 13710, DstPort: 53, Proto: 6},
				{SrcIP: 0x0a652f59, DstIP: 0xc0a8a046, SrcPort: 54647, DstPort: 22, Proto: 6},
			},
			keys: [4]uint64{0x87d43a961ee02c35, 0xd86f6607f5094544, 0x4bce6b1a8e1ca189, 0xc308f6d7f143b61a},
			packets: [3]pinnedPacket{
				{packet.FiveTuple{SrcIP: 0x0ac9829c, DstIP: 0xc0a8bb26, SrcPort: 1412, DstPort: 25, Proto: 6}, 0x177c0903c98a7df3},
				{packet.FiveTuple{SrcIP: 0x0a5846d2, DstIP: 0xc0a8799f, SrcPort: 44283, DstPort: 443, Proto: 6}, 0x8c5e42062b4b2afb},
				{packet.FiveTuple{SrcIP: 0x0a327ef5, DstIP: 0xc0a8d95b, SrcPort: 63072, DstPort: 25, Proto: 6}, 0x4a83b67d0327a1a6},
			},
			next: 0xf82cc2c253f3c06f,
		},
	}
	for _, c := range cases {
		rng := sim.NewRNG(c.seed)
		g := NewGenerator(c.prof, rng)
		n := g.NumFlows()
		for i, flow := range [4]int{0, 1, n / 2, n - 1} {
			if got := g.Flow(flow); got != c.flows[i] {
				t.Errorf("%+v seed %#x: flow %d = %+v, want %+v", c.prof, c.seed, flow, got, c.flows[i])
			}
			var key [1]uint64
			if got := g.FlowKeys(flow, key[:]); len(got) != 1 || got[0] != c.keys[i] {
				t.Errorf("%+v seed %#x: flow %d key = %#x, want %#x", c.prof, c.seed, flow, got, c.keys[i])
			}
		}
		for i, want := range c.packets {
			p := g.Packet()
			h := fnv.New64a()
			h.Write(p.Payload())
			if got := (pinnedPacket{p.Tuple, h.Sum64()}); got != want {
				t.Errorf("%+v seed %#x: packet %d = %+v, want %+v", c.prof, c.seed, i, got, want)
			}
		}
		if got := rng.Uint64(); got != c.next {
			t.Errorf("%+v seed %#x: draw after three packets = %#x, want %#x", c.prof, c.seed, got, c.next)
		}
	}
}
