package placement

import (
	"reflect"
	"testing"

	"repro/internal/nicsim"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

// TestCoRunKeyPinned pins the co-run memo's key text and the resident
// order it implies: a measurement planted under the literal key must
// come back for the same residents given in any order, paired with the
// residents in the key's order — bytewise over "name@(f, p, m)", so
// 10000 flows sorts before 9000 and the SLA plays no part. The order is
// load-bearing: it is the order the workloads are built and co-run in,
// so it decides every ground-truth measurement the simulator reports.
func TestCoRunKeyPinned(t *testing.T) {
	s := NewSimulator(testbed.New(nicsim.BlueField2(), 1))
	a := Arrival{Name: "NIDS", Profile: traffic.Default, SLA: 0.1}
	b := Arrival{Name: "ACL", Profile: traffic.Profile{Flows: 9000, PktSize: 256, MTBR: 0.1}, SLA: 0.2}
	c := Arrival{Name: "ACL", Profile: traffic.Profile{Flows: 10000, PktSize: 1500, MTBR: 1e-7}, SLA: 0.3}
	const key = "ACL@(10000, 1500, 1e-07)|ACL@(9000, 256, 0.1)|NIDS@(16000, 1500, 600)"
	planted := []nicsim.Measurement{{Throughput: 1}, {Throughput: 2}, {Throughput: 3}}
	s.coRunCache[key] = planted
	for _, residents := range [][]Arrival{{a, b, c}, {c, b, a}, {b, a, c}, {c, a, b}} {
		ms, ordered, err := s.CoRun(residents)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ms, planted) {
			t.Fatalf("CoRun(%v) did not look up %q: measured %v", residents, key, ms)
		}
		if want := []Arrival{c, b, a}; !reflect.DeepEqual(ordered, want) {
			t.Fatalf("CoRun(%v) ordered the residents %v, want %v", residents, ordered, want)
		}
	}
	if len(s.coRunCache) != 1 {
		t.Fatalf("lookups under other keys added %d memo entries", len(s.coRunCache)-1)
	}

	// One resident, and equal renderings with different SLAs: the given
	// order survives.
	lo, hi := Arrival{Name: "NAT", Profile: traffic.Default, SLA: 0.05}, Arrival{Name: "NAT", Profile: traffic.Default, SLA: 0.5}
	s.coRunCache["NAT@(16000, 1500, 600)"] = planted[:1]
	s.coRunCache["NAT@(16000, 1500, 600)|NAT@(16000, 1500, 600)"] = planted[:2]
	for _, residents := range [][]Arrival{{lo}, {hi, lo}, {lo, hi}} {
		ms, ordered, err := s.CoRun(residents)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != len(residents) || !reflect.DeepEqual(ordered, residents) {
			t.Fatalf("CoRun(%v) answered %v for %v", residents, ms, ordered)
		}
	}
}
