package cluster

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/nicsim"
	"repro/internal/placement"
	"repro/internal/testbed"
)

// measurementBits renders every field of a measurement, floats as their
// IEEE-754 bit patterns and accelerator maps in AccelKinds order, so a
// one-ulp drift or a reordered nicsim run shows.
func measurementBits(m nicsim.Measurement) string {
	var b strings.Builder
	bits := func(vs ...float64) {
		for _, v := range vs {
			fmt.Fprintf(&b, " %016x", math.Float64bits(v))
		}
	}
	accel := func(stats map[nicsim.AccelKind]nicsim.AccelStat) {
		rendered := 0
		for _, k := range nicsim.AccelKinds() {
			if s, ok := stats[k]; ok {
				rendered++
				fmt.Fprintf(&b, " %s=[", k)
				bits(s.RequestRate, s.MatchRate, s.MeanSojournSec, s.MeanServiceSec)
				fmt.Fprintf(&b, " q=%d]", s.Queues)
			}
		}
		if rendered != len(stats) {
			b.WriteString(" unknown-accel")
		}
	}
	fmt.Fprintf(&b, "%s bottleneck=%d", m.Name, int(m.Bottleneck))
	bits(m.Throughput, m.MemBandwidthUtil)
	bits(m.Counters.Vector()...)
	bits(m.Competitors.Vector()...)
	accel(m.AccelStats)
	accel(m.CompetitorAccel)
	return b.String()
}

// seededSolo reads the solo measurement a simulator holds for one
// arrival type, as SeedSolo stored it. The cache is the simulator's
// own; the test reads it without a production accessor.
func seededSolo(t *testing.T, s *placement.Simulator, a placement.Arrival) (nicsim.Measurement, int) {
	t.Helper()
	cache := reflect.ValueOf(s).Elem().FieldByName("soloCache")
	v := cache.MapIndex(reflect.ValueOf(backend.Key{NF: a.Name, Profile: a.Profile}))
	if !v.IsValid() {
		t.Fatalf("no solo seeded for %s %v", a.Name, a.Profile)
	}
	return *(*nicsim.Measurement)(v.UnsafePointer()), cache.Len()
}

// TestPrewarmSeedsPinned: Prewarm on a two-class fleet seeds each class
// simulator with exactly the solos a serial reference measures on a
// fresh testbed of that class — every NF in pool order, every profile
// in pool order, one nicsim run each — bit for bit, and leaves the
// class testbed's run numbering where that reference leaves it.
func TestPrewarmSeedsPinned(t *testing.T) {
	sc := Scenario{
		Classes: []ClassSpec{{Class: "bluefield2", Count: 2}, {Class: "pensando", Count: 1}},
		NFs:     []string{"FlowStats", "ACL", "NIDS"},
		// The default profile plus two random draws.
		Profiles: 3,
		Seed:     5,
	}.WithDefaults()
	const seed = 9
	env := NewEnv(nicsim.BlueField2(), seed, MapModels{})
	if err := env.Prewarm(context.Background(), sc, []string{"firstfit"}); err != nil {
		t.Fatal(err)
	}
	pool := sc.ProfilePool()
	for _, slot := range sc.classSlots() {
		cfg, err := ClassConfig(slot.Class)
		if err != nil {
			t.Fatal(err)
		}
		ce := env.class[classKey{name: slot.Class}]
		if ce == nil {
			t.Fatalf("class %s was not resolved", slot.Class)
		}
		ref := testbed.New(cfg, seed)
		for _, name := range sc.NFs {
			for _, prof := range pool {
				want, err := ref.SoloNF(name, prof)
				if err != nil {
					t.Fatal(err)
				}
				got, n := seededSolo(t, ce.sim, placement.Arrival{Name: name, Profile: prof})
				if n != len(sc.NFs)*len(pool) {
					t.Fatalf("%s: %d solos seeded, want %d", slot.Class, n, len(sc.NFs)*len(pool))
				}
				if g, w := measurementBits(got), measurementBits(want); g != w {
					t.Errorf("%s %s %v seeded solo moved:\n got %s\nwant %s", slot.Class, name, prof, g, w)
				}
			}
		}
		// The next run on the class testbed is the reference's next run:
		// Prewarm took exactly one nicsim run per key.
		next, err := ce.sim.TB.SoloNF(sc.NFs[0], pool[0])
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.SoloNF(sc.NFs[0], pool[0])
		if err != nil {
			t.Fatal(err)
		}
		if g, w := measurementBits(next), measurementBits(want); g != w {
			t.Errorf("%s: run numbering moved after Prewarm:\n got %s\nwant %s", slot.Class, g, w)
		}
	}
}
