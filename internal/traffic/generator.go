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

// burstSize is how many header frames HeaderBurst builds per call: a
// DPDK-style receive burst, short enough to stay in L1, long enough that
// a consumer's table misses for one burst overlap.
const burstSize = 32

// drawsPerFlow is how many RNG draws define one flow's five-tuple.
const drawsPerFlow = 4

// Generator produces packets for one traffic profile. It keeps no flow
// set: flow i is the four draws that start 4·i draws past the generator's
// origin (sim.RNG.At). Packet draws flows uniformly (the paper's uniform
// flow-size distribution).
//
// A Generator owns the frames it hands out and rebuilds them in place:
// a packet from Packet or HeaderBurst is valid until the next call of
// the same method. Consumers that need it longer copy it.
type Generator struct {
	profile Profile
	origin  sim.RNG // where flow 0's draws begin
	rng     *sim.RNG

	pkt   packet.Packet   // the frame Packet rebuilds and returns
	perm  []int           // synthPayload's marker-slot scratch
	burst []packet.Packet // the frames HeaderBurst rebuilds and returns
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

// drawFlow makes the drawsPerFlow draws that define a flow.
func drawFlow(rng *sim.RNG) packet.FiveTuple {
	dstPorts := [...]uint16{80, 443, 53, 22, 25}
	return packet.FiveTuple{
		SrcIP:   uint32(0x0a000000 + rng.Intn(1<<24)),
		DstIP:   uint32(0xc0a80000 + rng.Intn(1<<16)),
		SrcPort: uint16(1024 + rng.Intn(64000)),
		DstPort: dstPorts[rng.Intn(len(dstPorts))],
		Proto:   packet.ProtoTCP,
	}
}

// Profile returns the generator's traffic profile, with the packet size
// and flow count clamped to what is actually generated.
func (g *Generator) Profile() Profile { return g.profile }

// NumFlows returns the number of distinct flows.
func (g *Generator) NumFlows() int { return g.profile.Flows }

// Flow returns flow i's five-tuple, 0 <= i < NumFlows.
func (g *Generator) Flow(i int) packet.FiveTuple {
	rng := g.origin.At(uint64(i) * drawsPerFlow)
	return drawFlow(&rng)
}

// Packet generates one packet: a uniformly drawn flow carrying a payload
// synthesized at the profile's MTBR. The packet is rebuilt in place by
// the next call.
func (g *Generator) Packet() *packet.Packet {
	payload := g.pkt.Rebuild(g.Flow(g.rng.Intn(g.profile.Flows)), g.profile.PktSize)
	g.perm = synthPayload(payload, g.profile.MTBR, g.rng, g.perm)
	return &g.pkt
}

// HeaderBurst builds minimum-size, payload-free packets for the next few
// (at most 32) consecutive flows starting at flow first, and returns them;
// the burst is empty only past the last flow.
// NFs use them to populate per-flow state cheaply during footprint
// measurement, where payload contents are irrelevant. It draws nothing
// from the generator's RNG; the packets are rebuilt in place by the next
// call.
func (g *Generator) HeaderBurst(first int) []packet.Packet {
	if g.burst == nil {
		g.burst = make([]packet.Packet, burstSize)
		frames := make([]byte, burstSize*MinPktSize)
		for i := range g.burst {
			g.burst[i].Data = frames[i*MinPktSize : (i+1)*MinPktSize : (i+1)*MinPktSize]
		}
	}
	burst := g.burst[:min(max(g.profile.Flows-first, 0), burstSize)]
	rng := g.origin.At(uint64(first) * drawsPerFlow)
	for i := range burst {
		burst[i].Rebuild(drawFlow(&rng), MinPktSize)
	}
	return burst
}

// SynthPayload produces size bytes whose expected match count against the
// default ruleset is mtbr·size/1e6 (matches per MB), by inserting the
// marker pattern into non-matching filler at stochastically rounded
// density. This is the exrex role from the paper: payloads with a
// controlled match-to-byte ratio.
func SynthPayload(size int, mtbr float64, rng *sim.RNG) []byte {
	buf := make([]byte, size)
	synthPayload(buf, mtbr, rng, nil)
	return buf
}

// synthPayload is SynthPayload in place over buf. perm is scratch for the
// marker-slot permutation; the (possibly grown) scratch is returned for
// the next call.
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
