package nf

import (
	"fmt"
	"sort"

	"repro/internal/nicsim"
)

// constructors maps catalog names to NF factories, covering the paper's
// Table 1 plus the Pensando Firewall (Table 9).
var constructors = map[string]func() NF{
	"FlowStats":      func() NF { return NewFlowStats() },
	"IPRouter":       func() NF { return NewIPRouter() },
	"IPTunnel":       func() NF { return NewIPTunnel() },
	"NAT":            func() NF { return NewNAT() },
	"FlowMonitor":    func() NF { return NewFlowMonitor() },
	"NIDS":           func() NF { return NewNIDS() },
	"IPCompGateway":  func() NF { return NewIPCompGateway() },
	"ACL":            func() NF { return NewACL() },
	"FlowClassifier": func() NF { return NewFlowClassifier() },
	"FlowTracker":    func() NF { return NewFlowTracker() },
	"PacketFilter":   func() NF { return NewPacketFilter() },
	"Firewall":       func() NF { return NewFirewall() },
}

// New constructs a fresh NF by catalog name.
func New(name string) (NF, error) {
	c, ok := constructors[name]
	if !ok {
		return nil, fmt.Errorf("nf: unknown NF %q (have %v)", name, Names())
	}
	return c(), nil
}

// Known reports whether name is in the catalog, without constructing
// the NF — request validation uses it on serving hot paths.
func Known(name string) bool {
	_, ok := constructors[name]
	return ok
}

// Names lists the catalog in sorted order.
func Names() []string {
	names := make([]string, 0, len(constructors))
	for n := range constructors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Table1Names lists the nine NFs the paper's Figure 1 and Table 2
// evaluate (the BlueField-2 set minus the two DOCA/regex special cases
// it plots separately), in the paper's order.
func Table1Names() []string {
	return []string{
		"FlowStats", "NAT", "IPTunnel", "IPRouter", "FlowMonitor",
		"NIDS", "FlowTracker", "ACL", "FlowClassifier",
	}
}

// UsesAccelerator reports which accelerators the named NF exercises,
// per the paper's Table 1.
func UsesAccelerator(name string) []nicsim.AccelKind {
	switch name {
	case "FlowMonitor", "NIDS", "PacketFilter":
		return []nicsim.AccelKind{nicsim.AccelRegex}
	case "IPCompGateway":
		return []nicsim.AccelKind{nicsim.AccelRegex, nicsim.AccelCompress}
	}
	return nil
}
