package nf

import (
	"sync"

	"repro/internal/nicsim"
	"repro/internal/packet"
	"repro/internal/sim"
)

// routerFIBRoutes is the synthetic FIB size for IPRouter.
const routerFIBRoutes = 10000

// IPRouter forwards packets by longest-prefix match over a fixed FIB and
// decrements the TTL (Click, no accelerator). Its working set is the FIB,
// independent of flow count — the paper's traffic-insensitive router.
type IPRouter struct {
	fib *LPM
}

// routerFIB is the deterministic random FIB every IPRouter forwards by,
// built on first use. Routers only ever look routes up in it (Reset keeps
// the FIB), so they share one copy, concurrently.
var routerFIB = sync.OnceValue(func() *LPM {
	fib := NewLPM()
	fib.PopulateRandom(routerFIBRoutes, sim.NewRNG(0xf1b))
	return fib
})

// NewIPRouter returns a router over the shared FIB.
func NewIPRouter() *IPRouter { return &IPRouter{fib: routerFIB()} }

// Name implements NF.
func (r *IPRouter) Name() string { return "IPRouter" }

// Pattern implements NF.
func (r *IPRouter) Pattern() nicsim.ExecPattern { return nicsim.RunToCompletion }

// StateBytes implements NF.
func (r *IPRouter) StateBytes() float64 { return r.fib.StateBytes() }

// Reset implements NF: the FIB is static configuration, and the router
// keeps no other state.
func (r *IPRouter) Reset() {}

// Process implements NF.
func (r *IPRouter) Process(p *packet.Packet, st *OpStats) error {
	if err := ensureParsed(p); err != nil {
		return err
	}
	hop, steps := r.fib.Lookup(p.Tuple.DstIP)
	st.TrieSteps += float64(steps)
	if hop < 0 || !p.DecTTL() {
		st.Drops++
	}
	st.BytesTouched += headerBytes
	st.Packets++
	return nil
}

// tunnelEndpoints is the number of configured tunnel endpoints.
const tunnelEndpoints = 256

// IPTunnel encapsulates packets toward per-flow tunnel endpoints (Click).
// The encapsulation copy makes it packet-size sensitive, and the per-flow
// endpoint cache makes it flow-count sensitive — the NF the paper's
// traffic-awareness evaluation leans on (Table 5).
type IPTunnel struct {
	flowState
}

// NewIPTunnel returns an empty tunnel gateway.
func NewIPTunnel() *IPTunnel { return &IPTunnel{flowState: newFlowState()} }

// Name implements NF.
func (t *IPTunnel) Name() string { return "IPTunnel" }

// Pattern implements NF.
func (t *IPTunnel) Pattern() nicsim.ExecPattern { return nicsim.RunToCompletion }

// StateBytes implements NF.
func (t *IPTunnel) StateBytes() float64 { return t.table.StateBytes() }

// Reset implements NF.
func (t *IPTunnel) Reset() { t.table.Reset() }

// Process implements NF: pick (or assign) the flow's tunnel endpoint and
// encapsulate, which touches the whole frame.
func (t *IPTunnel) Process(p *packet.Packet, st *OpStats) error {
	if err := ensureParsed(p); err != nil {
		return err
	}
	key := p.FlowHash()
	e, probes, created := t.table.Insert(key)
	if created {
		e.Data[0] = key % tunnelEndpoints
	}
	e.Data[1]++
	// Encapsulation: write a fresh outer header and copy the inner frame.
	outerDst := uint32(0xac100000 + e.Data[0]) // 172.16.0.0/16 endpoint block
	p.SetDstIP(outerDst)
	st.BytesTouched += float64(p.Len()) + packet.IPv4HeaderLen
	st.HashProbes += float64(probes)
	st.Packets++
	return nil
}

// natPortBase is the first port handed out by the NAT allocator.
const natPortBase = 20000

// NAT rewrites source addresses with per-flow port allocation (Click).
type NAT struct {
	flowState
	nextPort uint64
	publicIP uint32
}

// NewNAT returns a NAT with an empty translation table.
func NewNAT() *NAT {
	return &NAT{flowState: newFlowState(), nextPort: natPortBase, publicIP: 0xc6336401} // 198.51.100.1
}

// Name implements NF.
func (n *NAT) Name() string { return "NAT" }

// Pattern implements NF.
func (n *NAT) Pattern() nicsim.ExecPattern { return nicsim.RunToCompletion }

// StateBytes implements NF.
func (n *NAT) StateBytes() float64 { return n.table.StateBytes() }

// Reset implements NF.
func (n *NAT) Reset() {
	n.table.Reset()
	n.nextPort = natPortBase
}

// Process implements NF: allocate a public port on the first packet of a
// flow, then rewrite the source address.
func (n *NAT) Process(p *packet.Packet, st *OpStats) error {
	if err := ensureParsed(p); err != nil {
		return err
	}
	e, probes, created := n.table.Insert(p.FlowHash())
	if created {
		e.Data[0] = n.nextPort
		n.nextPort++
		if n.nextPort > 65000 {
			n.nextPort = natPortBase
		}
	}
	e.Data[1]++
	p.SetSrcIP(n.publicIP)
	st.HashProbes += float64(probes)
	st.BytesTouched += headerBytes + packet.IPv4HeaderLen // header rewrite
	st.Packets++
	return nil
}

// Translations reports the number of active NAT entries.
func (n *NAT) Translations() int { return n.table.Len() }
