package testbed

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/israce"
	"repro/internal/nf"
	"repro/internal/nicsim"
	"repro/internal/traffic"
)

// reuseOrder walks the golden profiles so that each measurement's table
// reuses the one before it: a small table re-slices a larger dirty one
// (400001 → 5000, 262144 → 1) and a larger one takes storage a smaller
// measurement left dirty (5000 → 262144, 1 → 123457).
var reuseOrder = []int{400001, 5000, 262144, 1, 123457}

// reuseProfiles returns the golden profiles in reuseOrder.
func reuseProfiles(t *testing.T) []traffic.Profile {
	t.Helper()
	var profs []traffic.Profile
	for _, flows := range reuseOrder {
		for _, prof := range footprintProfiles {
			if prof.Flows == flows {
				profs = append(profs, prof)
			}
		}
	}
	if len(profs) != len(reuseOrder) {
		t.Fatalf("golden profiles hold %d of the %d reuse flow counts", len(profs), len(reuseOrder))
	}
	return profs
}

// flowKeepers lists the catalog NFs whose measurements reserve, and then
// release, a flow table.
func flowKeepers() []string {
	var names []string
	for _, name := range nf.Names() {
		if _, ok := nf.MustNew(name).(nf.FlowReserver); ok {
			names = append(names, name)
		}
	}
	return names
}

// TestFootprintsIndependentOfReuse: a footprint measured on storage an
// earlier measurement released — larger or smaller, and left dirty —
// equals the golden row bit for bit, whether the measurements run one
// after another or from two goroutines sharing the spare store at once.
func TestFootprintsIndependentOfReuse(t *testing.T) {
	golden := goldenFootprints(t)
	profs := reuseProfiles(t)
	names := flowKeepers()
	// check measures every NF through the profiles in reuse order on
	// fresh testbeds, so each key is measured, never answered from a
	// cache.
	check := func(t *testing.T, names []string) {
		for _, name := range names {
			for _, prof := range profs {
				w, err := New(nicsim.BlueField2(), 1).Workload(name, prof)
				if err != nil {
					t.Errorf("%s %v: %v", name, prof, err)
					continue
				}
				if got, want := footprintRow(name, prof, w), golden[footprintKey(name, prof)]; got != want {
					t.Errorf("%s %v footprint moved on reused storage:\n got %s\nwant %s", name, prof, got, want)
				}
			}
		}
	}
	t.Run("serial", func(t *testing.T) { check(t, names) })
	t.Run("concurrent", func(t *testing.T) {
		reversed := make([]string, len(names))
		for i, name := range names {
			reversed[len(names)-1-i] = name
		}
		var wg sync.WaitGroup
		for _, order := range [][]string{names, reversed} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				check(t, order)
			}()
		}
		wg.Wait()
	})
}

// TestWorkloadReusesTableStorage: once one measurement has released its
// table, a never-seen profile in the same size class — the same probe
// array, no more flows — allocates no flow-table storage of its own.
// Allocating a fresh table at these sizes costs ~17.7 MB.
func TestWorkloadReusesTableStorage(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	tb := New(nicsim.BlueField2(), 1)
	if _, err := tb.Workload("FlowStats", traffic.Profile{Flows: 250000, PktSize: 1500, MTBR: 600}); err != nil {
		t.Fatal(err)
	}
	novel := traffic.Profile{Flows: 240000, PktSize: 1024, MTBR: 300}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := tb.Workload("FlowStats", novel); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("a never-seen FlowStats footprint at %d flows allocated %d bytes after a released 250k-flow table, want <= %d",
			novel.Flows, got, 64<<10)
	} else {
		t.Logf("%d bytes allocated", got)
	}
}

var benchNovel *nicsim.Workload

// BenchmarkMeasureNovel times a never-seen footprint the way the serving
// path measures one: through Testbed.Workload, on a testbed that has not
// seen the key, so each iteration measures and then releases its flow
// table to the next. nf's BenchmarkMeasure times Measure alone, which
// allocates a fresh table every iteration.
func BenchmarkMeasureNovel(b *testing.B) {
	prof := traffic.Profile{Flows: 250000, PktSize: 1500, MTBR: 600}
	for _, name := range []string{"FlowStats", "ACL", "NAT", "FlowMonitor", "NIDS"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w, err := New(nicsim.BlueField2(), uint64(i)+1).Workload(name, prof)
				if err != nil {
					b.Fatal(err)
				}
				benchNovel = w
			}
		})
	}
}
