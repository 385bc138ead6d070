// Package nf implements the on-NIC network functions of the paper's
// Table 1 as real packet processors: they parse packet bytes, maintain
// flow tables, walk routing tries, match ACLs, and scan payloads.
//
// The NFs run their processing logic on generated traffic to *measure*
// their structural footprint (working-set size, memory references per
// packet, accelerator request shape), which is then mapped onto a
// nicsim.Workload. Traffic attributes therefore change workload
// characteristics the same way they do on hardware: more flows grow the
// flow table (and the WSS), larger packets carry more payload to the
// regex engine, higher MTBR means more matches per request.
//
// The per-flow state is a FlowTable: on the host a 4-byte-per-slot probe
// array (a key index) over a dense, insertion-ordered array of 8-byte
// keys, whatever the modeled 64 bytes a slot (entryBytes). A flow's six
// data words are materialized, at zero, in a small side store the first
// time the table hands that flow's *FlowEntry out; the pointer is valid
// until the table's next Insert or SlotEntry.
//
// Three rules keep a measurement as cheap as the footprint needs.
// Populate rule: before the measured packets, Measure seats every flow's
// key, in flow order, in the table of each NF that keeps per-flow state
// (the FlowReserver set); its data words are not stored, and read as zero
// when the flow is first touched. No packet goes through Process, and
// ACL, IPRouter and PacketFilter, which hold no such state, are not
// populated. This is exact because a FlowReserver's per-packet op counts
// read only its table's probe layout — which key sits in which slot —
// never its entries' data words or its own counters: a NAT port, a
// tunnel endpoint or a classifier class changes what an NF writes, not
// what it counts. Buffer-lifetime rule: the traffic generator rebuilds
// its frame in place, so the packet handed to Process belongs to the NF
// only for the duration of that call. Storage rule: a measurement's flow
// table is not garbage once its footprint is read. ReleaseFlows hands its
// probe array, its key array and its emptied entry store to one shared
// store, and the next empty table's Reserve re-slices them, clearing
// only the probe slots it needs and reusing the key array at length 0,
// since seating a key appends it; it allocates only what nothing stored
// can hold. Each Reserve on an empty table takes one stored table and
// each release returns one, so the store retains at most one table per
// measurement that can run at once — in a server, its compute slots plus
// the testbed's GOMAXPROCS warm-up goroutines.
package nf

import (
	"fmt"

	"repro/internal/nicsim"
	"repro/internal/packet"
	"repro/internal/patmatch"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// OpStats accumulates the operations an NF performs while processing a
// batch of packets. Measure converts these into per-packet hardware costs.
type OpStats struct {
	Packets       float64
	HashProbes    float64 // flow-table slot inspections
	TrieSteps     float64 // LPM trie node visits
	RuleChecks    float64 // ACL rule evaluations
	BytesTouched  float64 // packet bytes read/written by the CPU
	RegexBytes    float64 // payload bytes submitted to the regex engine
	RegexMatches  float64 // ruleset matches in the submitted payloads
	CompressBytes float64 // payload bytes submitted to the compression engine
	Drops         float64
}

// NF is a network function: a real packet processor with inspectable
// state. Implementations are not safe for concurrent use.
type NF interface {
	// Name is the NF's catalog name (e.g. "FlowMonitor").
	Name() string
	// Pattern is the NF's execution pattern (how Measure composes its
	// resource usage).
	Pattern() nicsim.ExecPattern
	// Process runs the NF's per-packet logic, accumulating operation
	// counts into st. It may rewrite the packet but must not retain p or
	// p.Data past the call: the caller reuses both for the next packet.
	Process(p *packet.Packet, st *OpStats) error
	// StateBytes is the current size of the NF's tables.
	StateBytes() float64
	// Reset clears all state.
	Reset()
}

// Per-operation hardware cost constants mapping measured operations onto
// the simulated SoC. Calibrated so solo NF throughputs land in the same
// 0.1–1.5 Mpps range the paper reports for Click/DPDK NFs on BlueField-2.
const (
	baseCPUSec    = 850e-9    // rx/tx + framework overhead per packet
	hashProbeSec  = 55e-9     // one table-slot inspection
	trieStepSec   = 9e-9      // one trie node visit
	ruleCheckSec  = 4e-9      // one ACL rule evaluation
	byteTouchSec  = 0.30e-9   // one payload byte handled by the CPU
	accelDispatch = 60e-9     // enqueue/dequeue of one accelerator request
	baseMemRefs   = 20.0      // descriptor, ring, header and buffer-metadata cache lines
	probeMemRefs  = 4.0       // cache lines per table probe (entry + chain metadata)
	trieMemRefs   = 1.0       // cache lines per trie step
	ruleMemRefs   = 0.5       // cache lines per rule check
	codeFootprint = 192 << 10 // instruction/stack working set
	defaultMemMLP = 1.6       // modest overlap for pointer-chasing NFs
)

// NFCores is the cores one NF runs on: its workload's worker cores and
// accelerator queues, and the allocation placement and the fleet
// scheduler budget per NF on a NIC. The paper gives each NF two
// dedicated cores.
const NFCores = 2

// Matcher is the shared compiled ruleset (the paper's NFs share one
// ruleset [5]).
var Matcher = patmatch.CompileDefault()

// measurePackets is the number of full packets processed in the
// measurement phase, after table population.
const measurePackets = 300

// Measure profiles the NF's packet-processing code under the given
// traffic profile and returns the equivalent hardware workload. The NF is
// Reset first; if it keeps per-flow state every flow's key is seated in its
// table (the populate rule); then measurePackets full packets (with
// synthesized payloads) are processed while counting operations.
func Measure(n NF, prof traffic.Profile, seed uint64) (*nicsim.Workload, error) {
	rng := sim.NewRNG(seed)
	gen := traffic.NewGenerator(prof, rng)
	n.Reset()

	// Population phase, for NFs that keep per-flow state only: every
	// flow's key is seated in the table, so the state reaches its
	// steady-state size and layout (the populate rule).
	if r, ok := n.(FlowReserver); ok {
		r.PopulateFlows(gen)
	}

	// Measurement phase: full packets with payloads at the profile MTBR.
	var st OpStats
	for i := 0; i < measurePackets; i++ {
		if err := n.Process(gen.Packet(), &st); err != nil {
			return nil, fmt.Errorf("nf %s: measure: %w", n.Name(), err)
		}
	}
	if st.Packets == 0 {
		return nil, fmt.Errorf("nf %s: no packets measured", n.Name())
	}

	per := 1 / st.Packets
	w := &nicsim.Workload{
		Name:    n.Name(),
		Pattern: n.Pattern(),
		Cores:   NFCores,
		CPUSecPerPkt: baseCPUSec +
			st.HashProbes*per*hashProbeSec +
			st.TrieSteps*per*trieStepSec +
			st.RuleChecks*per*ruleCheckSec +
			st.BytesTouched*per*byteTouchSec,
		MemRefsPerPkt: baseMemRefs +
			st.HashProbes*per*probeMemRefs +
			st.TrieSteps*per*trieMemRefs +
			st.RuleChecks*per*ruleMemRefs +
			st.BytesTouched*per/64,
		WSSBytes: n.StateBytes() + codeFootprint,
		MemMLP:   defaultMemMLP,
		PktBytes: float64(gen.Profile().PktSize),
		Accel:    map[nicsim.AccelKind]nicsim.AccelUse{},
	}
	// NFs open one request queue per worker core (per-core queue pairs,
	// the DPDK/DOCA convention), so a core never waits behind its own
	// sibling's request.
	if st.RegexBytes > 0 {
		w.CPUSecPerPkt += accelDispatch
		w.Accel[nicsim.AccelRegex] = nicsim.AccelUse{
			ReqsPerPkt:    1,
			BytesPerReq:   st.RegexBytes * per,
			MatchesPerReq: st.RegexMatches * per,
			Queues:        NFCores,
		}
	}
	if st.CompressBytes > 0 {
		w.CPUSecPerPkt += accelDispatch
		w.Accel[nicsim.AccelCompress] = nicsim.AccelUse{
			ReqsPerPkt:  1,
			BytesPerReq: st.CompressBytes * per,
			Queues:      NFCores,
		}
	}
	return w, nil
}
