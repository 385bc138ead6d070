package nf

import (
	"repro/internal/nicsim"
	"repro/internal/packet"
)

// ensureParsed fills the packet's parsed view if the caller handed over
// raw bytes.
func ensureParsed(p *packet.Packet) error {
	if p.PayloadOff > 0 {
		return nil
	}
	return p.Parse()
}

// scanPayload submits the packet payload to the regex accelerator:
// footprint measurement records the request size and the ground-truth
// match count from the shared compiled ruleset.
func scanPayload(p *packet.Packet, st *OpStats) int {
	pl := p.Payload()
	st.RegexBytes += float64(len(pl))
	matches := Matcher.Count(pl)
	st.RegexMatches += float64(matches)
	return matches
}

// headerBytes is the portion of the frame the CPU touches for header-only
// processing (Ethernet + IPv4 + L4 headers).
const headerBytes = 54

// FlowStats maintains per-flow packet and byte counters — the canonical
// header-only, flow-sensitive NF (Click, no accelerator).
type FlowStats struct {
	flowState
}

// NewFlowStats returns an empty FlowStats NF.
func NewFlowStats() *FlowStats { return &FlowStats{flowState: newFlowState()} }

// Name implements NF.
func (f *FlowStats) Name() string { return "FlowStats" }

// Pattern implements NF.
func (f *FlowStats) Pattern() nicsim.ExecPattern { return nicsim.RunToCompletion }

// StateBytes implements NF.
func (f *FlowStats) StateBytes() float64 { return f.table.StateBytes() }

// Reset implements NF.
func (f *FlowStats) Reset() { f.table.Reset() }

// Process implements NF: look up (or create) the flow entry and update
// its counters.
func (f *FlowStats) Process(p *packet.Packet, st *OpStats) error {
	if err := ensureParsed(p); err != nil {
		return err
	}
	e, probes, _ := f.table.Insert(p.FlowHash())
	e.Data[0]++                  // packets
	e.Data[1] += uint64(p.Len()) // bytes
	st.HashProbes += float64(probes)
	st.BytesTouched += headerBytes
	st.Packets++
	return nil
}

// Flows reports the number of tracked flows.
func (f *FlowStats) Flows() int { return f.table.Len() }

// FlowClassifier assigns each flow to one of nClasses service classes and
// counts per-class traffic (DPDK ip_pipeline-style).
type FlowClassifier struct {
	flowState
	classCount [64]uint64
}

// NewFlowClassifier returns an empty classifier.
func NewFlowClassifier() *FlowClassifier { return &FlowClassifier{flowState: newFlowState()} }

// Name implements NF.
func (f *FlowClassifier) Name() string { return "FlowClassifier" }

// Pattern implements NF.
func (f *FlowClassifier) Pattern() nicsim.ExecPattern { return nicsim.RunToCompletion }

// StateBytes implements NF.
func (f *FlowClassifier) StateBytes() float64 {
	return f.table.StateBytes() + float64(len(f.classCount)*8)
}

// Reset implements NF.
func (f *FlowClassifier) Reset() {
	f.table.Reset()
	f.classCount = [64]uint64{}
}

// Process implements NF.
func (f *FlowClassifier) Process(p *packet.Packet, st *OpStats) error {
	if err := ensureParsed(p); err != nil {
		return err
	}
	key := p.FlowHash()
	e, probes, created := f.table.Insert(key)
	if created {
		e.Data[0] = key & 63 // assigned class
	}
	f.classCount[e.Data[0]&63]++
	e.Data[1]++
	st.HashProbes += float64(probes)
	st.BytesTouched += headerBytes
	st.Packets++
	return nil
}

// FlowTracker follows per-flow connection state: packet counts, a logical
// last-seen stamp, and accumulated TCP flags (DOCA flow-tracking style).
type FlowTracker struct {
	flowState
	tick uint64
}

// NewFlowTracker returns an empty tracker.
func NewFlowTracker() *FlowTracker { return &FlowTracker{flowState: newFlowState()} }

// Name implements NF.
func (f *FlowTracker) Name() string { return "FlowTracker" }

// Pattern implements NF.
func (f *FlowTracker) Pattern() nicsim.ExecPattern { return nicsim.RunToCompletion }

// StateBytes implements NF.
func (f *FlowTracker) StateBytes() float64 { return f.table.StateBytes() }

// Reset implements NF.
func (f *FlowTracker) Reset() {
	f.table.Reset()
	f.tick = 0
}

// Process implements NF.
func (f *FlowTracker) Process(p *packet.Packet, st *OpStats) error {
	if err := ensureParsed(p); err != nil {
		return err
	}
	f.tick++
	e, probes, _ := f.table.Insert(p.FlowHash())
	e.Data[0]++        // packets
	e.Data[1] = f.tick // last seen
	if p.Tuple.Proto == packet.ProtoTCP && p.PayloadOff >= 14 {
		// Accumulate the TCP flags byte (offset 13 in the TCP header).
		flagOff := p.PayloadOff - packet.TCPHeaderLen + 13
		if flagOff < len(p.Data) {
			e.Data[2] |= uint64(p.Data[flagOff])
		}
	}
	st.HashProbes += float64(probes)
	st.BytesTouched += headerBytes
	st.Packets++
	return nil
}
