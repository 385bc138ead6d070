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

// Generator produces packets for one traffic profile. It pre-builds the
// flow set; Packet then draws flows uniformly (the paper's uniform
// flow-size distribution).
//
// A Generator owns the frames it hands out and rebuilds them in place:
// a packet from Packet or HeaderBurst is valid until the next call of
// the same method. Consumers that need it longer copy it.
type Generator struct {
	profile Profile
	flows   []packet.FiveTuple
	rng     *sim.RNG

	pkt   packet.Packet   // the frame Packet rebuilds and returns
	perm  []int           // synthPayload's marker-slot scratch
	burst []packet.Packet // the frames HeaderBurst rebuilds and returns
}

// NewGenerator builds a generator for profile, drawing all randomness
// from rng.
func NewGenerator(profile Profile, rng *sim.RNG) *Generator {
	if profile.PktSize < MinPktSize {
		profile.PktSize = MinPktSize
	}
	if profile.Flows < 1 {
		profile.Flows = 1
	}
	g := &Generator{profile: profile, rng: rng}
	g.flows = make([]packet.FiveTuple, profile.Flows)
	dstPorts := [...]uint16{80, 443, 53, 22, 25}
	for i := range g.flows {
		g.flows[i] = packet.FiveTuple{
			SrcIP:   uint32(0x0a000000 + rng.Intn(1<<24)),
			DstIP:   uint32(0xc0a80000 + rng.Intn(1<<16)),
			SrcPort: uint16(1024 + rng.Intn(64000)),
			DstPort: dstPorts[rng.Intn(len(dstPorts))],
			Proto:   packet.ProtoTCP,
		}
	}
	return g
}

// Profile returns the generator's traffic profile, with the packet size
// and flow count clamped to what is actually generated.
func (g *Generator) Profile() Profile { return g.profile }

// NumFlows returns the number of distinct flows.
func (g *Generator) NumFlows() int { return len(g.flows) }

// Packet generates one packet: a uniformly drawn flow carrying a payload
// synthesized at the profile's MTBR. The packet is rebuilt in place by
// the next call.
func (g *Generator) Packet() *packet.Packet {
	t := g.flows[g.rng.Intn(len(g.flows))]
	payload := g.pkt.Rebuild(t, g.profile.PktSize)
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
	flows := g.flows[min(first, len(g.flows)):]
	burst := g.burst[:min(len(flows), burstSize)]
	for i := range burst {
		burst[i].Rebuild(flows[i], MinPktSize)
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
