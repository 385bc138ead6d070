// Package traffic generates workloads for the network functions: traffic
// profiles (flow count, packet size, match-to-byte ratio), flow sets,
// packet batches, and payloads synthesized to hit a target MTBR against
// the shared ruleset — the role DPDK-Pktgen and exrex play in the paper.
//
// A Generator's flows are derived, not stored: flow i is four RNG draws
// at a known offset from where the generator was built, and sim.RNG can
// be repositioned there in O(1), so it is recomputed when a packet needs
// it and a generator costs the same for a million flows as for ten.
package traffic

import (
	"fmt"
	"strconv"

	"repro/internal/sim"
)

// Profile describes the traffic attributes the paper models (§5.1): flow
// count, packet size in bytes, and match-to-byte ratio in matches per
// megabyte of payload. A profile of 16K flows, 1500B packets and
// 600 matches/MB is written (16000, 1500, 600).
type Profile struct {
	Flows   int
	PktSize int
	MTBR    float64
}

// Default is the paper's default traffic profile: 16K flows, 1500B
// packets, 600 matches/MB.
var Default = Profile{Flows: 16000, PktSize: 1500, MTBR: 600}

// Attribute identifies one traffic attribute dimension. The adaptive
// profiler (Algorithm 1) prunes and bisects over these.
type Attribute int

// Attribute dimensions in Vector order.
const (
	AttrFlows Attribute = iota
	AttrPktSize
	AttrMTBR
	NumAttributes
)

// String names the attribute.
func (a Attribute) String() string {
	switch a {
	case AttrFlows:
		return "flows"
	case AttrPktSize:
		return "pktsize"
	case AttrMTBR:
		return "mtbr"
	}
	return fmt.Sprintf("attr(%d)", int(a))
}

// Bounds returns the attribute's possible range [min, max], used by
// adaptive profiling.
func (a Attribute) Bounds() (lo, hi float64) {
	switch a {
	case AttrFlows:
		return 1000, 500000
	case AttrPktSize:
		return 64, 1500
	case AttrMTBR:
		return 0, 1100
	}
	return 0, 0
}

// Vector returns the profile as a feature vector (flows, pktSize, MTBR),
// the representation fed to traffic-aware models.
func (p Profile) Vector() []float64 {
	return []float64{float64(p.Flows), float64(p.PktSize), p.MTBR}
}

// Get returns the value of one attribute.
func (p Profile) Get(a Attribute) float64 {
	switch a {
	case AttrFlows:
		return float64(p.Flows)
	case AttrPktSize:
		return float64(p.PktSize)
	case AttrMTBR:
		return p.MTBR
	}
	return 0
}

// With returns a copy of the profile with one attribute replaced.
func (p Profile) With(a Attribute, v float64) Profile {
	switch a {
	case AttrFlows:
		p.Flows = int(v)
	case AttrPktSize:
		p.PktSize = int(v)
		if p.PktSize < MinPktSize {
			p.PktSize = MinPktSize
		}
	case AttrMTBR:
		p.MTBR = v
	}
	return p
}

// AppendText appends the profile's rendering, "(flows, pktsize, mtbr)"
// with the MTBR as %g prints it, to b. It is the one renderer, and its
// text is a cache-key format, not a display choice: serve's response
// cache, the feedback controller's scenario keys and placement's co-run
// memo all embed it, and serve's reloadAffects parses it back out.
// Change it only together with that parser; TestProfileStringPinned
// holds it to the byte.
func (p Profile) AppendText(b []byte) []byte {
	b = strconv.AppendInt(append(b, '('), int64(p.Flows), 10)
	b = strconv.AppendInt(append(b, ", "...), int64(p.PktSize), 10)
	b = strconv.AppendFloat(append(b, ", "...), p.MTBR, 'g', -1, 64)
	return append(b, ')')
}

// String renders the profile as its attribute vector.
func (p Profile) String() string { return string(p.AppendText(nil)) }

// Random returns a profile drawn uniformly from the attribute bounds,
// used for the "100 distinct traffic profiles" evaluations (§7.4). The
// flow count upper bound follows the paper's 500K.
func Random(rng *sim.RNG) Profile {
	fl, fh := AttrFlows.Bounds()
	sl, sh := AttrPktSize.Bounds()
	ml, mh := AttrMTBR.Bounds()
	return Profile{
		Flows:   int(rng.Range(fl, fh)),
		PktSize: int(rng.Range(sl, sh)),
		MTBR:    rng.Range(ml, mh),
	}
}

// EvalProfiles returns the paper's "9 distinct traffic profiles" style
// grid used for overall accuracy (Table 2): low/default/high values per
// attribute, varied one axis at a time around the default.
func EvalProfiles() []Profile {
	return []Profile{
		Default,
		{Flows: 4000, PktSize: 1500, MTBR: 600},
		{Flows: 64000, PktSize: 1500, MTBR: 600},
		{Flows: 256000, PktSize: 1500, MTBR: 600},
		{Flows: 16000, PktSize: 256, MTBR: 600},
		{Flows: 16000, PktSize: 512, MTBR: 600},
		{Flows: 16000, PktSize: 1024, MTBR: 600},
		{Flows: 16000, PktSize: 1500, MTBR: 80},
		{Flows: 16000, PktSize: 1500, MTBR: 1000},
	}
}

// FullGrid enumerates the full-profiling grid the paper quotes for the
// 3200× cost comparison: nSizes packet sizes × nFlows flow counts.
// The returned profiles keep the default MTBR.
func FullGrid(nSizes, nFlows int) []Profile {
	sl, sh := AttrPktSize.Bounds()
	fl, fh := AttrFlows.Bounds()
	grid := make([]Profile, 0, nSizes*nFlows)
	for i := 0; i < nSizes; i++ {
		size := sl + (sh-sl)*float64(i)/float64(max(nSizes-1, 1))
		for j := 0; j < nFlows; j++ {
			flows := fl + (fh-fl)*float64(j)/float64(max(nFlows-1, 1))
			grid = append(grid, Profile{
				Flows:   int(flows),
				PktSize: int(size),
				MTBR:    Default.MTBR,
			})
		}
	}
	return grid
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
