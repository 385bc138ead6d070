package nf

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/israce"
	"repro/internal/nicsim"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// TestMeasureAllocs holds Measure to a constant number of allocations
// (generator, table, the measured packets' frame and touched entries, the
// Workload itself) so a per-packet or per-flow allocation cannot creep
// back. It reads 38.
func TestMeasureAllocs(t *testing.T) {
	n := NewFlowMonitor()
	prof := traffic.Profile{Flows: 100000, PktSize: 1500, MTBR: 600}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Measure(n, prof, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("Measure allocates %v times per call, want <= 64", allocs)
	}
}

// TestMeasureBytesPerFlow holds a measurement's memory to what the host
// layout needs: a 4-byte probe slot (at most 2/0.75 of them per flow) and
// an 8-byte key per flow for an NF that keeps per-flow state, and nothing
// that scales with the flow count for one that does not — the generator
// derives flows instead of storing them, and data words are stored only
// for the flows the measured packets touch.
func TestMeasureBytesPerFlow(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const flows = 250000
	prof := traffic.Profile{Flows: flows, PktSize: 1500, MTBR: 600}
	for _, c := range []struct {
		name  string
		limit uint64
	}{
		{"FlowStats", 20 * flows},
		{"ACL", 64 << 10},
	} {
		n := constructors[c.name]()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Measure(n, prof, 1); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > c.limit {
			t.Errorf("Measure(%s, %d flows) allocated %d bytes (%.1f per flow), want <= %d",
				c.name, flows, got, float64(got)/flows, c.limit)
		}
	}
}

// TestMeasurePopulatesOnlyPerFlowState: the populate pass runs for the
// NFs that keep per-flow state — every catalog NF but the three that hold
// no flow table — and for no others.
func TestMeasurePopulatesOnlyPerFlowState(t *testing.T) {
	stateless := map[string]bool{"ACL": true, "IPRouter": true, "PacketFilter": true}
	for _, name := range Names() {
		if _, keeps := constructors[name]().(FlowReserver); keeps == stateless[name] {
			t.Errorf("%s: FlowReserver = %v, want %v", name, keeps, !stateless[name])
		}
	}
	prof := traffic.Profile{Flows: 5000, PktSize: 256, MTBR: 600}
	acl := NewACL()
	if _, err := Measure(acl, prof, 1); err != nil {
		t.Fatal(err)
	}
	if got := acl.allowed + acl.denied; got != measurePackets {
		t.Errorf("ACL saw %d packets, want the %d measured ones only", got, measurePackets)
	}
	fs := NewFlowStats()
	if _, err := Measure(fs, prof, 1); err != nil {
		t.Fatal(err)
	}
	if len(fs.table.keys) < prof.Flows*99/100 {
		t.Errorf("FlowStats tracks %d flows after Measure, want ~%d", len(fs.table.keys), prof.Flows)
	}
}

// flowTable exposes a FlowReserver's table to the tests below.
func (s *flowState) flowTable() *FlowTable { return s.table }

// TestMeasurePopulateLayout pins the populate pass's mechanism, where
// footprints.golden pins only its outputs: after Measure, every
// FlowReserver's probe array and entry keys are those of a fresh table
// sized by Reserve(n) that then took each flow's key, Flow(i).Hash(), in
// flow order — the measured packets add no entry and move none.
func TestMeasurePopulateLayout(t *testing.T) {
	const seed = 11
	for _, flows := range []int{1, 5000, 123457, 400001} {
		prof := traffic.Profile{Flows: flows, PktSize: 256, MTBR: 600}
		gen := traffic.NewGenerator(prof, sim.NewRNG(seed))
		want := NewFlowTable()
		want.Reserve(gen.NumFlows())
		for i := 0; i < gen.NumFlows(); i++ {
			want.Insert(gen.Flow(i).Hash())
		}
		for _, name := range Names() {
			n := constructors[name]()
			r, ok := n.(interface{ flowTable() *FlowTable })
			if !ok {
				continue
			}
			if _, err := Measure(n, prof, seed); err != nil {
				t.Fatalf("%s at %d flows: %v", name, flows, err)
			}
			got := r.flowTable()
			if !slices.Equal(got.slots, want.slots) {
				t.Errorf("%s at %d flows: probe array differs from Reserve + Insert in flow order", name, flows)
			}
			if len(got.keys) != len(want.keys) {
				t.Errorf("%s at %d flows: %d entries, want %d", name, flows, len(got.keys), len(want.keys))
				continue
			}
			for i := range got.keys {
				if got.keys[i] != want.keys[i] {
					t.Errorf("%s at %d flows: entry %d key %#x, want %#x", name, flows, i, got.keys[i], want.keys[i])
					break
				}
			}
		}
	}
}

// TestMeasureClampsPktSize: a sub-minimum packet size is synthesized as
// 64-byte frames, so the footprint must describe 64-byte frames too.
func TestMeasureClampsPktSize(t *testing.T) {
	tiny, err := Measure(NewFlowStats(), traffic.Profile{Flows: 16000, PktSize: 10, MTBR: 600}, 9)
	if err != nil {
		t.Fatal(err)
	}
	floor, err := Measure(NewFlowStats(), traffic.Profile{Flows: 16000, PktSize: traffic.MinPktSize, MTBR: 600}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if tiny.PktBytes != traffic.MinPktSize {
		t.Errorf("PktBytes = %v for a 10-byte profile, want %d", tiny.PktBytes, traffic.MinPktSize)
	}
	if !reflect.DeepEqual(tiny, floor) {
		t.Errorf("clamped profile measured differently:\n got %+v\nwant %+v", tiny, floor)
	}
}

var benchWorkload *nicsim.Workload

// BenchmarkMeasure times one footprint measurement of each NF the bench
// fleet serves, at the mean flow count of a serve-novel competitor.
func BenchmarkMeasure(b *testing.B) {
	prof := traffic.Profile{Flows: 250000, PktSize: 1500, MTBR: 600}
	for _, name := range []string{"FlowStats", "ACL", "NAT", "FlowMonitor", "NIDS"} {
		b.Run(name, func(b *testing.B) {
			n := constructors[name]()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := Measure(n, prof, uint64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				benchWorkload = w
			}
		})
	}
}
