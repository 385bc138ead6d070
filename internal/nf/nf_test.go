package nf

import (
	"strings"
	"testing"

	"repro/internal/nicsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func processBatch(t *testing.T, n NF, prof traffic.Profile, npkts int) OpStats {
	t.Helper()
	gen := traffic.NewGenerator(prof, sim.NewRNG(7))
	var st OpStats
	for i := 0; i < npkts; i++ {
		if err := n.Process(gen.Packet(), &st); err != nil {
			t.Fatalf("%s: %v", n.Name(), err)
		}
	}
	return st
}

func TestCatalogConstructsAll(t *testing.T) {
	for _, name := range Names() {
		n, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if n.Name() != name {
			t.Fatalf("Name() = %q, want %q", n.Name(), name)
		}
		st := processBatch(t, n, traffic.Profile{Flows: 100, PktSize: 512, MTBR: 600}, 50)
		if st.Packets != 50 {
			t.Fatalf("%s processed %v packets", name, st.Packets)
		}
	}
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("NoSuchNF"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("err = %v", err)
	}
}

func TestFlowStatsCountsFlows(t *testing.T) {
	f := NewFlowStats()
	prof := traffic.Profile{Flows: 200, PktSize: 256, MTBR: 0}
	processBatch(t, f, prof, 3000)
	if len(f.table.keys) < 180 || len(f.table.keys) > 200 {
		t.Fatalf("Flows = %d, want ~200", len(f.table.keys))
	}
}

func TestFlowStatsStateGrowsWithFlows(t *testing.T) {
	small := NewFlowStats()
	processBatch(t, small, traffic.Profile{Flows: 500, PktSize: 128}, 2000)
	big := NewFlowStats()
	processBatch(t, big, traffic.Profile{Flows: 50000, PktSize: 128}, 120000)
	if big.StateBytes() <= small.StateBytes() {
		t.Fatalf("state did not grow: %v vs %v", small.StateBytes(), big.StateBytes())
	}
}

func TestIPRouterStateIndependentOfFlows(t *testing.T) {
	r := NewIPRouter()
	before := r.StateBytes()
	processBatch(t, r, traffic.Profile{Flows: 10000, PktSize: 128}, 5000)
	if r.StateBytes() != before {
		t.Fatal("router FIB size changed with traffic")
	}
}

func TestIPRouterDecsTTLAndDrops(t *testing.T) {
	r := NewIPRouter()
	st := processBatch(t, r, traffic.Profile{Flows: 50, PktSize: 128}, 500)
	if st.TrieSteps < 500 {
		t.Fatalf("TrieSteps = %v, want >= packets", st.TrieSteps)
	}
}

// TestIPRouterResetMatchesFresh: a router that has forwarded traffic and
// been Reset forwards the next traffic exactly as a fresh router does.
func TestIPRouterResetMatchesFresh(t *testing.T) {
	prof := traffic.Profile{Flows: 2000, PktSize: 128}
	used := NewIPRouter()
	processBatch(t, used, traffic.Profile{Flows: 300, PktSize: 512}, 1000)
	used.Reset()
	got := processBatch(t, used, prof, 3000)
	want := processBatch(t, NewIPRouter(), prof, 3000)
	if got != want {
		t.Fatalf("after Reset: %+v, fresh router: %+v", got, want)
	}
}

func TestNATRewritesSource(t *testing.T) {
	n := NewNAT()
	tp := packet.FiveTuple{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 1000, DstPort: 80, Proto: packet.ProtoTCP}
	p := packet.Build(tp, 128, nil)
	var st OpStats
	if err := n.Process(p, &st); err != nil {
		t.Fatal(err)
	}
	if p.Tuple.SrcIP == 0x0a000001 {
		t.Fatal("source IP not rewritten")
	}
	if !p.VerifyIPChecksum() {
		t.Fatal("checksum broken by NAT")
	}
	if len(n.table.keys) != 1 {
		t.Fatalf("Translations = %d", len(n.table.keys))
	}
}

func TestIPTunnelEncapsulates(t *testing.T) {
	tun := NewIPTunnel()
	tp := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: packet.ProtoTCP}
	p := packet.Build(tp, 256, nil)
	var st OpStats
	if err := tun.Process(p, &st); err != nil {
		t.Fatal(err)
	}
	if p.Tuple.DstIP>>16 != 0xac10 {
		t.Fatalf("dst not rewritten to endpoint block: %08x", p.Tuple.DstIP)
	}
	if st.BytesTouched < 256 {
		t.Fatalf("encap should touch whole frame, got %v", st.BytesTouched)
	}
}

func TestNIDSAlertsOnMatches(t *testing.T) {
	n := NewNIDS()
	tp := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: packet.ProtoTCP}
	evil := packet.Build(tp, 256, []byte("GET /etc/passwd HTTP/1.1"))
	var st OpStats
	if err := n.Process(evil, &st); err != nil {
		t.Fatal(err)
	}
	if n.alerted != 1 {
		t.Fatalf("AlertedFlows = %d", n.alerted)
	}
	if st.RegexMatches == 0 || st.RegexBytes == 0 {
		t.Fatalf("regex stats empty: %+v", st)
	}
}

func TestPacketFilterDrops(t *testing.T) {
	f := NewPacketFilter()
	tp := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: packet.ProtoTCP}
	var st OpStats
	if err := f.Process(packet.Build(tp, 256, []byte("cmd.exe launch")), &st); err != nil {
		t.Fatal(err)
	}
	if err := f.Process(packet.Build(tp, 256, []byte("~~~~innocuous~~~~")), &st); err != nil {
		t.Fatal(err)
	}
	if f.dropped != 1 || st.Drops != 1 {
		t.Fatalf("Dropped = %d, st.Drops = %v", f.dropped, st.Drops)
	}
}

func TestACLDefaultAllows(t *testing.T) {
	a := NewACL()
	st := processBatch(t, a, traffic.Profile{Flows: 100, PktSize: 128}, 1000)
	if st.RuleChecks < 1000 {
		t.Fatalf("RuleChecks = %v", st.RuleChecks)
	}
	if st.Drops > 500 {
		t.Fatalf("synthetic policy too aggressive: %v drops", st.Drops)
	}
}

func TestFirewallWalksTable(t *testing.T) {
	fw := NewFirewall()
	st := processBatch(t, fw, traffic.Profile{Flows: 1000, PktSize: 128}, 2000)
	// Each packet: >=1 probe for the flow plus walk entries.
	if st.HashProbes < 2000*(1+firewallWalkEntries) {
		t.Fatalf("HashProbes = %v, want walk included", st.HashProbes)
	}
}

func TestMeasureFlowSensitivity(t *testing.T) {
	// FlowStats WSS must grow with flow count (the Fig. 6a mechanism).
	small, err := Measure(NewFlowStats(), traffic.Profile{Flows: 2000, PktSize: 1500, MTBR: 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Measure(NewFlowStats(), traffic.Profile{Flows: 64000, PktSize: 1500, MTBR: 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if big.WSSBytes <= small.WSSBytes {
		t.Fatalf("WSS did not grow with flows: %v vs %v", small.WSSBytes, big.WSSBytes)
	}
}

func TestMeasureRegexShape(t *testing.T) {
	low, err := Measure(NewFlowMonitor(), traffic.Default.With(traffic.AttrMTBR, 100), 1)
	if err != nil {
		t.Fatal(err)
	}
	high, err := Measure(NewFlowMonitor(), traffic.Default.With(traffic.AttrMTBR, 1000), 1)
	if err != nil {
		t.Fatal(err)
	}
	lu, ok := low.Accel[nicsim.AccelRegex]
	if !ok {
		t.Fatal("FlowMonitor workload has no regex use")
	}
	hu := high.Accel[nicsim.AccelRegex]
	if hu.MatchesPerReq <= lu.MatchesPerReq {
		t.Fatalf("matches/req did not scale with MTBR: %v vs %v",
			lu.MatchesPerReq, hu.MatchesPerReq)
	}
	if lu.BytesPerReq <= 0 {
		t.Fatal("regex request bytes not measured")
	}
}

func TestMeasurePacketSizeSensitivity(t *testing.T) {
	// IPTunnel copies the frame: CPU time should grow with packet size.
	small, err := Measure(NewIPTunnel(), traffic.Default.With(traffic.AttrPktSize, 64), 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Measure(NewIPTunnel(), traffic.Default.With(traffic.AttrPktSize, 1500), 1)
	if err != nil {
		t.Fatal(err)
	}
	if big.CPUSecPerPkt <= small.CPUSecPerPkt {
		t.Fatal("IPTunnel CPU cost insensitive to packet size")
	}
	// FlowStats is header-only: CPU time stays flat (Fig. 6b).
	s2, err := Measure(NewFlowStats(), traffic.Default.With(traffic.AttrPktSize, 64), 1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Measure(NewFlowStats(), traffic.Default.With(traffic.AttrPktSize, 1500), 1)
	if err != nil {
		t.Fatal(err)
	}
	rel := (b2.CPUSecPerPkt - s2.CPUSecPerPkt) / s2.CPUSecPerPkt
	if rel > 0.05 {
		t.Fatalf("FlowStats CPU cost moved %.1f%% with packet size", rel*100)
	}
}

func TestMeasureProducesValidWorkloads(t *testing.T) {
	for _, name := range Names() {
		w, err := Measure(constructors[name](), traffic.Default, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.CPUSecPerPkt <= 0 || w.MemRefsPerPkt <= 0 || w.WSSBytes <= 0 {
			t.Fatalf("%s: degenerate workload %+v", name, w)
		}
		for _, kind := range UsesAccelerator(name) {
			if !w.UsesAccel(kind) {
				t.Fatalf("%s: expected %v usage", name, kind)
			}
		}
	}
}

func TestMeasuredSoloThroughputsPlausible(t *testing.T) {
	// Solo throughputs on the BF-2 model should land in the paper's
	// 0.1–5 Mpps ballpark for all catalog NFs.
	nic := nicsim.New(nicsim.BlueField2(), 99)
	for _, name := range Table1Names() {
		w, err := Measure(constructors[name](), traffic.Default, 1)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := nic.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		m := ms[0]
		if m.Throughput < 0.05e6 || m.Throughput > 10e6 {
			t.Errorf("%s solo throughput %.2f Mpps implausible", name, m.Throughput/1e6)
		}
	}
}
