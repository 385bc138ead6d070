package nf

import (
	"repro/internal/nicsim"
	"repro/internal/packet"
	"repro/internal/sim"
)

// ACLRule matches packets on masked addresses and a destination port
// range, with an allow/deny action.
type ACLRule struct {
	SrcIP, SrcMask uint32
	DstIP, DstMask uint32
	PortLo, PortHi uint16
	Allow          bool
}

// Matches reports whether the rule covers the tuple.
func (r ACLRule) Matches(t packet.FiveTuple) bool {
	return t.SrcIP&r.SrcMask == r.SrcIP&r.SrcMask &&
		t.DstIP&r.DstMask == r.DstIP&r.DstMask &&
		t.DstPort >= r.PortLo && t.DstPort <= r.PortHi
}

// aclRuleCount is the synthetic policy size.
const aclRuleCount = 100

// aclRuleBytes models one rule's memory footprint.
const aclRuleBytes = 32

// ACL filters packets against an ordered rule list with first-match
// semantics (DPDK). It keeps no per-flow state, so it is the paper's
// lightweight, traffic-insensitive NF.
type ACL struct {
	rules   []ACLRule
	denied  uint64
	allowed uint64
}

// NewACL returns an ACL with a deterministic synthetic policy: narrow
// early rules that rarely match, so most packets traverse much of the
// list, plus a default-allow tail.
func NewACL() *ACL {
	rng := sim.NewRNG(0xac1)
	a := &ACL{}
	for i := 0; i < aclRuleCount-1; i++ {
		a.rules = append(a.rules, ACLRule{
			SrcIP: uint32(rng.Uint64()), SrcMask: 0xffffff00,
			DstIP: uint32(rng.Uint64()), DstMask: 0xffff0000,
			PortLo: uint16(rng.Intn(60000)), PortHi: uint16(rng.Intn(60000)),
			Allow: rng.Float64() < 0.5,
		})
	}
	a.rules = append(a.rules, ACLRule{PortHi: 0xffff, Allow: true}) // default allow
	return a
}

// Name implements NF.
func (a *ACL) Name() string { return "ACL" }

// Pattern implements NF.
func (a *ACL) Pattern() nicsim.ExecPattern { return nicsim.RunToCompletion }

// StateBytes implements NF.
func (a *ACL) StateBytes() float64 { return float64(len(a.rules) * aclRuleBytes) }

// Reset implements NF: rules are static policy; counters clear.
func (a *ACL) Reset() { a.denied, a.allowed = 0, 0 }

// Process implements NF.
func (a *ACL) Process(p *packet.Packet, st *OpStats) error {
	if err := ensureParsed(p); err != nil {
		return err
	}
	for i := range a.rules {
		st.RuleChecks++
		if a.rules[i].Matches(p.Tuple) {
			if a.rules[i].Allow {
				a.allowed++
			} else {
				a.denied++
				st.Drops++
			}
			break
		}
	}
	st.BytesTouched += headerBytes
	st.Packets++
	return nil
}

// firewallWalkEntries is how many neighbouring flow entries the firewall
// touches per packet during its flow walk.
const firewallWalkEntries = 4

// Firewall is the Pensando generalization NF (§8, Table 9): it walks the
// hardware flow table, updating entry metadata on matches against input
// traffic. The periodic walk touches extra entries per packet, giving it
// a distinctive memory profile.
type Firewall struct {
	flowState
	walk uint64
}

// NewFirewall returns an empty firewall.
func NewFirewall() *Firewall { return &Firewall{flowState: newFlowState()} }

// Name implements NF.
func (f *Firewall) Name() string { return "Firewall" }

// Pattern implements NF.
func (f *Firewall) Pattern() nicsim.ExecPattern { return nicsim.RunToCompletion }

// StateBytes implements NF.
func (f *Firewall) StateBytes() float64 { return f.table.StateBytes() }

// Reset implements NF.
func (f *Firewall) Reset() {
	f.table.Reset()
	f.walk = 0
}

// Process implements NF: update the matched flow, then advance the flow
// walk over the next few table slots.
func (f *Firewall) Process(p *packet.Packet, st *OpStats) error {
	if err := ensureParsed(p); err != nil {
		return err
	}
	e, probes, _ := f.table.Insert(p.FlowHash())
	e.Data[0]++
	e.Data[1] = f.walk
	st.HashProbes += float64(probes)
	// Flow walk: scan the next few slots for expiry metadata updates.
	for i := 0; i < firewallWalkEntries; i++ {
		f.walk++
		if e := f.table.SlotEntry(f.walk); e != nil {
			e.Data[3]++
		}
		st.HashProbes++
	}
	st.BytesTouched += headerBytes
	st.Packets++
	return nil
}
