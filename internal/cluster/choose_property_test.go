package cluster

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/nf"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// fullScanChoose is the plain reference predictFit is held to: every
// NIC with core capacity, ordered by (free cores, index), each scored
// afresh by its class simulator's Score. The first NIC that admits the
// arrival wins; an empty one wins outright.
func fullScanChoose(env *Env, f *Fleet, a placement.Arrival, policy string) (int, error) {
	var order []int
	for i := range f.NICs {
		if f.Fits(i) {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(x, y int) bool { return f.FreeCores(order[x]) < f.FreeCores(order[y]) })
	strat := placement.PredictionAware(policy)
	for _, i := range order {
		n := f.NICs[i]
		if len(n.Tenants) == 0 {
			return i, nil
		}
		ce, ok := env.class[n.key]
		if !ok {
			return -1, fmt.Errorf("NIC %d has unresolved class %q", i, n.Class)
		}
		if !ce.sim.Fits(len(n.Tenants)) {
			continue
		}
		names := []string{a.Name}
		for _, t := range n.Tenants {
			names = append(names, t.Name)
		}
		if err := env.ensureModels(ce, strat, names); err != nil {
			return -1, err
		}
		sc, err := ce.sim.Score(n.arrivals(), a, strat)
		if err != nil {
			return -1, err
		}
		if sc.Admits(a.SLA) {
			return i, nil
		}
	}
	return -1, nil
}

// opRig drives one seeded op sequence against a fleet, holding every
// decision of a long-lived scheduler to fullScanChoose.
type opRig struct {
	t      *testing.T
	env    *Env
	f      *Fleet
	sched  Scheduler
	policy string
	rng    *sim.RNG
	pool   []traffic.Profile
	home   map[int]int // tenant ID → NIC index, kept by the rig itself
	live   []int       // resident tenant IDs
	nextID int
	n      int // decisions checked
	// outcomes counts decisions by result: rejected, onto an empty NIC,
	// onto an occupied one.
	outcomes [3]int
}

func (r *opRig) arrival() placement.Arrival {
	return placement.Arrival{
		Name:    testNFs[r.rng.Intn(len(testNFs))],
		Profile: r.pool[r.rng.Intn(len(r.pool))],
		SLA:     r.rng.Range(0.02, 0.6),
	}
}

// choose asks the scheduler and the reference, failing on any
// disagreement.
func (r *opRig) choose(a placement.Arrival) int {
	r.t.Helper()
	got, err := r.sched.Choose(r.f, a)
	want, werr := fullScanChoose(r.env, r.f, a, r.policy)
	if got != want || (err == nil) != (werr == nil) {
		r.t.Fatalf("decision %d (%s %v sla %.3f): Choose = (%d, %v), full scan = (%d, %v)",
			r.n, a.Name, a.Profile, a.SLA, got, err, want, werr)
	}
	r.n++
	switch {
	case got < 0:
		r.outcomes[0]++
	case len(r.f.NICs[got].Tenants) == 0:
		r.outcomes[1]++
	default:
		r.outcomes[2]++
	}
	return got
}

func (r *opRig) place(i int, t Tenant) {
	r.f.place(i, t)
	r.home[t.ID] = i
	r.live = append(r.live, t.ID)
}

// evict removes the k-th live tenant from its NIC and returns it.
func (r *opRig) evict(k int) Tenant {
	r.t.Helper()
	id := r.live[k]
	r.live[k] = r.live[len(r.live)-1]
	r.live = r.live[:len(r.live)-1]
	t, ok := r.f.remove(r.home[id], id)
	if !ok {
		r.t.Fatalf("tenant %d not resident on NIC %d", id, r.home[id])
	}
	delete(r.home, id)
	return t
}

// prefill loads about half the fleet before its first decision: even
// NICs by hand through the Tenants field, as a caller setting a fleet up
// does, odd ones through place.
func (r *opRig) prefill() {
	for i, n := range r.f.NICs {
		load := r.rng.Intn(n.Cores/nf.NFCores + 1) // empty .. full
		for j := 0; j < load; j++ {
			r.nextID++
			t := Tenant{ID: r.nextID, Arrival: r.arrival()}
			if i%2 == 0 {
				n.Tenants = append(n.Tenants, t)
				r.home[t.ID] = i
				r.live = append(r.live, t.ID)
			} else {
				r.place(i, t)
			}
		}
	}
}

// step runs one random op: an arrival, a departure, a drift re-placed
// at its NIC's tail (the orchestrator's drift path), a migration
// through Choose, or a solo recalibration that moves a class's model
// generation.
func (r *opRig) step() {
	r.t.Helper()
	switch op := r.rng.Intn(100); {
	case op < 50 || len(r.live) == 0:
		r.nextID++
		t := Tenant{ID: r.nextID, Arrival: r.arrival()}
		if i := r.choose(t.Arrival); i >= 0 {
			r.place(i, t)
		}
	case op < 72:
		r.evict(r.rng.Intn(len(r.live)))
	case op < 90:
		k := r.rng.Intn(len(r.live))
		i := r.home[r.live[k]]
		t := r.evict(k)
		t.Profile = r.pool[r.rng.Intn(len(r.pool))]
		r.place(i, t)
	case op < 98:
		k := r.rng.Intn(len(r.live))
		from := r.home[r.live[k]]
		t := r.evict(k)
		if to := r.choose(t.Arrival); to >= 0 && to != from {
			r.place(to, t)
		}
	default:
		n := r.f.NICs[r.rng.Intn(len(r.f.NICs))]
		s := r.env.simFor(n)
		a := r.arrival()
		m, err := s.TB.SoloNF(a.Name, a.Profile)
		if err != nil {
			r.t.Fatal(err)
		}
		s.SeedSolo(a, m)
	}
}

// TestChooseMatchesFullScan replays seeded op sequences — arrivals,
// departures, drift re-placements, migrations and solo recalibrations,
// every mutation through Fleet methods after the first decision — and
// requires each decision of one long-lived scheduler to equal the full
// scan's, on homogeneous and mixed-class fleets of 16, 256 and 1024
// NICs.
func TestChooseMatchesFullScan(t *testing.T) {
	cases := []struct {
		name    string
		classes []ClassSpec
		policy  string
		ops     int
	}{
		{"16 NICs yala", []ClassSpec{{Class: "", Count: 16}}, "yala", 600},
		{"16 NICs slomo", []ClassSpec{{Class: "", Count: 16}}, "slomo", 600},
		{"256 NICs mixed", []ClassSpec{{Class: "bluefield2", Count: 160}, {Class: "pensando", Count: 64}, {Class: "bluefield2", Count: 32, Cores: 12}}, "yala", 1500},
		{"1024 NICs", []ClassSpec{{Class: "", Count: 1024}}, "yala", 1500},
		{"1024 NICs mixed", []ClassSpec{{Class: "pensando", Count: 256}, {Class: "bluefield2", Count: 768}}, "yala", 1500},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := Scenario{Classes: tc.classes, NFs: testNFs, Profiles: 4, Seed: 5}.WithDefaults()
			env := testEnv(t, testModels(t))
			if err := env.Prewarm(context.Background(), sc, []string{tc.policy}); err != nil {
				t.Fatal(err)
			}
			f, err := env.ScenarioFleet(sc)
			if err != nil {
				t.Fatal(err)
			}
			sched, err := NewScheduler(tc.policy, env, 1)
			if err != nil {
				t.Fatal(err)
			}
			r := &opRig{t: t, env: env, f: f, sched: sched, policy: tc.policy,
				rng: sim.NewRNG(uint64(100 + ci)), pool: sc.ProfilePool(), home: map[int]int{}}
			r.prefill()
			for k := 0; k < tc.ops; k++ {
				r.step()
			}
			// Rejections, empty NICs and admissions next to residents
			// must all occur, or the sequence tests less than it claims.
			if r.n < tc.ops/2 || min(r.outcomes[0], r.outcomes[1], r.outcomes[2]) == 0 {
				t.Fatalf("checked %d decisions over %d ops (rejected, empty, occupied: %v)", r.n, tc.ops, r.outcomes)
			}
			t.Logf("%d decisions (rejected, empty, occupied: %v)", r.n, r.outcomes)
		})
	}
}
