package traffic

import (
	"repro/internal/packet"
	"repro/internal/sim"
)

// MinPktSize is the smallest frame we generate (classic 64B minimum).
const MinPktSize = 64

// markerPattern is the byte sequence inserted into payloads to produce
// ruleset matches. It is the first DefaultRules entry ("GET "), so every
// insertion yields exactly one match against the default matcher.
const markerPattern = "GET "

// fillerAlphabet contains bytes that cannot form any default-rule match:
// no rule consists solely of these characters.
const fillerAlphabet = ".-~#_"

// drawsPerFlow is how many RNG draws define one flow's five-tuple.
const drawsPerFlow = 4

// Generator produces packets for one traffic profile. It keeps no flow
// set: flow i is the four draws that start 4·i draws past the generator's
// origin (sim.RNG.At). Packet draws flows uniformly (the paper's uniform
// flow-size distribution).
//
// A Generator owns the one frame Packet hands out and rebuilds it in
// place: it is valid until the next Packet call. Consumers that need it
// longer copy it. Flow and FlowKeys build no frame.
type Generator struct {
	profile Profile
	origin  sim.RNG // where flow 0's draws begin
	rng     *sim.RNG

	pkt  packet.Packet // the frame Packet rebuilds and returns
	perm []int         // synthPayload's marker-slot scratch
}

// NewGenerator builds a generator for profile, drawing all randomness
// from rng, which it leaves past every flow's draws.
func NewGenerator(profile Profile, rng *sim.RNG) *Generator {
	if profile.PktSize < MinPktSize {
		profile.PktSize = MinPktSize
	}
	if profile.Flows < 1 {
		profile.Flows = 1
	}
	g := &Generator{profile: profile, origin: rng.At(0), rng: rng}
	rng.Skip(uint64(profile.Flows) * drawsPerFlow)
	return g
}

// drawFlow makes the drawsPerFlow draws that define a flow: its addresses
// and ports. Every flow is TCP.
func drawFlow(rng *sim.RNG) (srcIP, dstIP uint32, srcPort, dstPort uint16) {
	dstPorts := [...]uint16{80, 443, 53, 22, 25}
	return uint32(0x0a000000 + rng.Intn(1<<24)),
		uint32(0xc0a80000 + rng.Intn(1<<16)),
		uint16(1024 + rng.Intn(64000)),
		dstPorts[rng.Intn(len(dstPorts))]
}

// Profile returns the generator's traffic profile, with the packet size
// and flow count clamped to what is actually generated.
func (g *Generator) Profile() Profile { return g.profile }

// NumFlows returns the number of distinct flows.
func (g *Generator) NumFlows() int { return g.profile.Flows }

// Flow returns flow i's five-tuple, 0 <= i < NumFlows.
func (g *Generator) Flow(i int) packet.FiveTuple {
	rng := g.origin.At(uint64(i) * drawsPerFlow)
	srcIP, dstIP, srcPort, dstPort := drawFlow(&rng)
	return packet.FiveTuple{SrcIP: srcIP, DstIP: dstIP, SrcPort: srcPort, DstPort: dstPort, Proto: packet.ProtoTCP}
}

// FlowKeys fills keys with the keys of consecutive flows from flow first
// on — key i is Flow(first+i).Hash() — and returns the filled prefix,
// which is shorter than keys only at the last flows and empty past them.
// It hashes the draws directly, building no tuple and no frame, and
// draws nothing from the generator's RNG.
func (g *Generator) FlowKeys(first int, keys []uint64) []uint64 {
	keys = keys[:min(max(g.profile.Flows-first, 0), len(keys))]
	rng := g.origin.At(uint64(first) * drawsPerFlow)
	for i := range keys {
		srcIP, dstIP, srcPort, dstPort := drawFlow(&rng)
		keys[i] = packet.TupleHash(srcIP, dstIP, srcPort, dstPort, packet.ProtoTCP)
	}
	return keys
}

// Packet generates one packet: a uniformly drawn flow carrying a payload
// synthesized at the profile's MTBR. The packet is rebuilt in place by
// the next call.
func (g *Generator) Packet() *packet.Packet {
	payload := g.pkt.Rebuild(g.Flow(g.rng.Intn(g.profile.Flows)), g.profile.PktSize)
	g.perm = synthPayload(payload, g.profile.MTBR, g.rng, g.perm)
	return &g.pkt
}

// synthPayload fills buf with bytes whose expected match count against
// the default ruleset is mtbr·len(buf)/1e6 (matches per MB), by inserting
// the marker pattern into non-matching filler at stochastically rounded
// density. This is the exrex role from the paper: payloads with a
// controlled match-to-byte ratio. perm is scratch for the marker-slot
// permutation; the (possibly grown) scratch is returned for the next
// call.
func synthPayload(buf []byte, mtbr float64, rng *sim.RNG, perm []int) []int {
	for i := range buf {
		buf[i] = fillerAlphabet[rng.Intn(len(fillerAlphabet))]
	}
	size := len(buf)
	if size < len(markerPattern) || mtbr <= 0 {
		return perm
	}
	want := mtbr * float64(size) / 1e6
	n := int(want)
	if rng.Float64() < want-float64(n) {
		n++
	}
	// Place n non-overlapping markers in distinct slots so each insertion
	// contributes exactly one match: the first n entries of a full
	// Fisher–Yates permutation of the slots, drawn as sim.RNG.Perm draws it.
	slots := size / len(markerPattern)
	if n > slots {
		n = slots
	}
	if cap(perm) < slots {
		perm = make([]int, slots)
	}
	perm = perm[:slots]
	for i := range perm {
		perm[i] = i
	}
	rng.Shuffle(slots, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	for _, slot := range perm[:n] {
		copy(buf[slot*len(markerPattern):], markerPattern)
	}
	return perm
}
