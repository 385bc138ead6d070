package nf

import (
	"repro/internal/nicsim"
	"repro/internal/packet"
)

// FlowMonitor combines per-flow statistics with payload inspection on the
// regex accelerator (Click + regex). It runs as a pipeline: the CPU stage
// updates flow state while the accelerator scans payloads — the paper's
// primary multi-resource NF.
type FlowMonitor struct {
	flowState
	matched uint64
}

// NewFlowMonitor returns an empty FlowMonitor.
func NewFlowMonitor() *FlowMonitor { return &FlowMonitor{flowState: newFlowState()} }

// Name implements NF.
func (f *FlowMonitor) Name() string { return "FlowMonitor" }

// Pattern implements NF.
func (f *FlowMonitor) Pattern() nicsim.ExecPattern { return nicsim.Pipeline }

// StateBytes implements NF.
func (f *FlowMonitor) StateBytes() float64 { return f.table.StateBytes() }

// Reset implements NF.
func (f *FlowMonitor) Reset() {
	f.table.Reset()
	f.matched = 0
}

// Process implements NF.
func (f *FlowMonitor) Process(p *packet.Packet, st *OpStats) error {
	if err := ensureParsed(p); err != nil {
		return err
	}
	e, probes, _ := f.table.Insert(p.FlowHash())
	e.Data[0]++
	e.Data[1] += uint64(p.Len())
	if m := scanPayload(p, st); m > 0 {
		e.Data[2] += uint64(m)
		f.matched++
	}
	st.HashProbes += float64(probes)
	st.BytesTouched += headerBytes
	st.Packets++
	return nil
}

// NIDS scans payloads against the ruleset while tracking per-flow stream
// state — the reassembly/context table real intrusion detectors keep for
// every connection (Click + regex). It runs run-to-completion: the
// verdict must be known before the packet leaves.
type NIDS struct {
	flowState
	alerted uint64
}

// NewNIDS returns a NIDS with an empty stream table.
func NewNIDS() *NIDS { return &NIDS{flowState: newFlowState()} }

// Name implements NF.
func (n *NIDS) Name() string { return "NIDS" }

// Pattern implements NF.
func (n *NIDS) Pattern() nicsim.ExecPattern { return nicsim.RunToCompletion }

// StateBytes implements NF.
func (n *NIDS) StateBytes() float64 { return n.table.StateBytes() }

// Reset implements NF.
func (n *NIDS) Reset() {
	n.table.Reset()
	n.alerted = 0
}

// Process implements NF: update the flow's stream context, scan the
// payload, and record alerts against the flow.
func (n *NIDS) Process(p *packet.Packet, st *OpStats) error {
	if err := ensureParsed(p); err != nil {
		return err
	}
	e, probes, _ := n.table.Insert(p.FlowHash())
	e.Data[0]++ // packets inspected
	matches := scanPayload(p, st)
	if matches > 0 {
		if e.Data[1] == 0 {
			n.alerted++
		}
		e.Data[1] += uint64(matches)
	}
	st.HashProbes += float64(probes)
	st.BytesTouched += headerBytes
	st.Packets++
	return nil
}

// PacketFilter drops packets whose payload matches the ruleset (DOCA +
// regex), run-to-completion.
type PacketFilter struct {
	dropped uint64
	passed  uint64
}

// NewPacketFilter returns a filter with zeroed counters.
func NewPacketFilter() *PacketFilter { return &PacketFilter{} }

// Name implements NF.
func (f *PacketFilter) Name() string { return "PacketFilter" }

// Pattern implements NF.
func (f *PacketFilter) Pattern() nicsim.ExecPattern { return nicsim.RunToCompletion }

// StateBytes implements NF: the filter is stateless beyond counters.
func (f *PacketFilter) StateBytes() float64 { return 64 }

// Reset implements NF.
func (f *PacketFilter) Reset() { f.dropped, f.passed = 0, 0 }

// Process implements NF.
func (f *PacketFilter) Process(p *packet.Packet, st *OpStats) error {
	if err := ensureParsed(p); err != nil {
		return err
	}
	if scanPayload(p, st) > 0 {
		f.dropped++
		st.Drops++
	} else {
		f.passed++
	}
	st.BytesTouched += headerBytes
	st.Packets++
	return nil
}

// IPCompGateway scans payloads and compresses them toward the tunnel
// peer (Click + regex + compression), the paper's dual-accelerator NF.
// It runs as a pipeline across the two engines.
type IPCompGateway struct {
	flowState
}

// NewIPCompGateway returns an empty gateway.
func NewIPCompGateway() *IPCompGateway { return &IPCompGateway{flowState: newFlowState()} }

// Name implements NF.
func (g *IPCompGateway) Name() string { return "IPCompGateway" }

// Pattern implements NF.
func (g *IPCompGateway) Pattern() nicsim.ExecPattern { return nicsim.Pipeline }

// StateBytes implements NF.
func (g *IPCompGateway) StateBytes() float64 { return g.table.StateBytes() }

// Reset implements NF.
func (g *IPCompGateway) Reset() { g.table.Reset() }

// Process implements NF.
func (g *IPCompGateway) Process(p *packet.Packet, st *OpStats) error {
	if err := ensureParsed(p); err != nil {
		return err
	}
	e, probes, _ := g.table.Insert(p.FlowHash())
	e.Data[0]++
	scanPayload(p, st)
	st.CompressBytes += float64(len(p.Payload()))
	st.HashProbes += float64(probes)
	st.BytesTouched += headerBytes
	st.Packets++
	return nil
}
