package cluster

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/traffic"
)

// freshChecked holds every decision of a long-lived scheduler to the
// one a scheduler constructed for that decision alone makes on the same
// fleet. A fresh scheduler has no memo, so agreement at every decision
// is the memo's whole contract. Embedding the interface hides whatever
// else the concrete scheduler offers — as bench's tracedScheduler does —
// so the memo is exercised with nothing but the *Fleet Choose receives.
type freshChecked struct {
	Scheduler
	t   *testing.T
	env *Env
	n   int
}

func (c *freshChecked) Choose(f *Fleet, a placement.Arrival) (int, error) {
	c.t.Helper()
	got, err := c.Scheduler.Choose(f, a)
	// Built without the registry, so the slot counters report the
	// long-lived scheduler alone.
	reg := c.env.obsReg
	c.env.obsReg = nil
	fresh, ferr := NewScheduler(c.Name(), c.env, 1)
	c.env.obsReg = reg
	if ferr != nil {
		c.t.Fatal(ferr)
	}
	want, werr := fresh.Choose(f, a)
	if got != want || (err == nil) != (werr == nil) {
		c.t.Errorf("%s decision %d (%s %v sla %.3f): long-lived chose %d (%v), fresh chose %d (%v)",
			c.Name(), c.n, a.Name, a.Profile, a.SLA, got, err, want, werr)
	}
	c.n++
	return got, err
}

// TestLongLivedSchedulerMatchesFresh replays whole streams through one
// long-lived scheduler per policy and checks each decision against a
// fresh scheduler's: the reference churn stream (arrivals and in-place
// departures), and — in drift_test.go, where the models are already
// trained — the drifting Online scenario, whose promotions move the
// generation mid-run (runDriftComparison wraps its scheduler the same
// way).
func TestLongLivedSchedulerMatchesFresh(t *testing.T) {
	sc := referenceScenario()
	events := referenceEvents(sc.Stream())
	for _, policy := range []string{"yala", "slomo"} {
		env := testEnv(t, testModels(t))
		if err := env.Prewarm(context.Background(), sc, []string{policy}); err != nil {
			t.Fatal(err)
		}
		f, err := env.ScenarioFleet(sc)
		if err != nil {
			t.Fatal(err)
		}
		inner, err := NewScheduler(policy, env, sc.Seed)
		if err != nil {
			t.Fatal(err)
		}
		checked := &freshChecked{Scheduler: inner, t: t, env: env}
		if err := playReference(f, checked, events); err != nil {
			t.Fatal(err)
		}
		if checked.n != sc.Arrivals {
			t.Fatalf("%s: checked %d decisions, want %d", policy, checked.n, sc.Arrivals)
		}
	}
}

// memoRig is a small fleet whose NIC 0 is the unique tightest fit, so
// every decision visits it first, plus the spread of arrivals the table
// cases decide over.
type memoRig struct {
	t      *testing.T
	env    *Env
	reg    *obs.Registry
	sched  *freshChecked
	pool   []traffic.Profile
	nextID int
}

func newMemoRig(t *testing.T) *memoRig {
	r := &memoRig{t: t, env: testEnv(t, testModels(t)), reg: obs.NewRegistry()}
	r.env.SetObs(r.reg)
	sc := Scenario{Classes: []ClassSpec{{Class: "bluefield2", Count: 4}}, NFs: testNFs, Profiles: 3, Seed: 11}.WithDefaults()
	if err := r.env.Prewarm(context.Background(), sc, []string{"yala"}); err != nil {
		t.Fatal(err)
	}
	r.pool = sc.ProfilePool()
	inner, err := NewScheduler("yala", r.env, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.sched = &freshChecked{Scheduler: inner, t: t, env: r.env}
	return r
}

// tenant mints the k-th resident of the rig's pool.
func (r *memoRig) tenant(k int) Tenant {
	r.nextID++
	return Tenant{ID: r.nextID, Arrival: placement.Arrival{
		Name: testNFs[k%len(testNFs)], Profile: r.pool[k%len(r.pool)], SLA: 0.3 + 0.1*float64(k%4)}}
}

// fleet builds four NICs of one class holding 2, 1, 1 and 0 residents —
// the same residents whatever the class.
func (r *memoRig) fleet(class string) *Fleet {
	r.t.Helper()
	f, err := r.env.ScenarioFleet(Scenario{Classes: []ClassSpec{{Class: class, Count: 4}}})
	if err != nil {
		r.t.Fatal(err)
	}
	for i, load := range []int{2, 1, 1, 0} {
		for j := 0; j < load; j++ {
			f.place(i, r.tenant(3*i+j))
		}
	}
	return f
}

// decide runs the arrival spread through the checked scheduler and
// returns how many slots it sent through a predictor meanwhile.
func (r *memoRig) decide(f *Fleet) uint64 {
	r.t.Helper()
	scored := r.reg.Counter("cluster_slots_scored_total", "policy", "yala")
	before := scored.Load()
	for k := 0; k < 2*len(testNFs)*len(r.pool); k++ {
		a := placement.Arrival{Name: testNFs[k%len(testNFs)], Profile: r.pool[k%len(r.pool)], SLA: 0.02 + 0.07*float64(k%9)}
		if _, err := r.sched.Choose(f, a); err != nil {
			r.t.Fatal(err)
		}
	}
	return scored.Load() - before
}

// TestMemoSurvivesCallerMutations mutates state between decisions the
// ways real callers do — through the Fleet's methods, the class
// simulator, or another fleet — and requires the long-lived scheduler to
// keep agreeing with a fresh one, and the slot the mutation touched to
// be re-scored rather than answered from the memo.
func TestMemoSurvivesCallerMutations(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(r *memoRig, f *Fleet)
	}{
		// remove shifts the backing array in place: a snapshot aliasing
		// it would shift too and still compare equal.
		{"remove shifts the backing array", func(r *memoRig, f *Fleet) {
			f.place(0, r.tenant(5))
			r.decide(f)
			f.remove(0, f.NICs[0].Tenants[0].ID)
		}},
		// Same multiset, new order: feature accumulation is
		// order-sensitive, so the memo must key the sequence.
		{"drift re-places at the tail", func(r *memoRig, f *Fleet) {
			moved, _ := f.remove(0, f.NICs[0].Tenants[0].ID)
			f.place(0, moved)
		}},
		{"SeedSolo recalibrates a resident", func(r *memoRig, f *Fleet) {
			a, sim := f.NICs[0].Tenants[0].Arrival, r.env.simFor(f.NICs[0])
			m, err := sim.TB.SoloNF(a.Name, a.Profile)
			if err != nil {
				r.t.Fatal(err)
			}
			m.Throughput *= 3
			sim.SeedSolo(a, m)
		}},
		{"SetModel swaps a model", func(r *memoRig, f *Fleet) {
			sim := r.env.simFor(f.NICs[0])
			other, err := sim.Model("yala", testNFs[1])
			if err != nil {
				r.t.Fatal(err)
			}
			sim.SetModel("yala", testNFs[0], other)
		}},
		// Equal residents on other hardware: only the *NIC tells them apart.
		{"another fleet, then back", func(r *memoRig, f *Fleet) {
			if r.decide(r.fleet("pensando")) == 0 {
				r.t.Error("a never-seen fleet was answered without scoring")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newMemoRig(t)
			f := r.fleet("bluefield2")
			r.decide(f)
			tc.mutate(r, f)
			if r.decide(f) == 0 {
				t.Error("no slot was re-scored after the mutation")
			}
		})
	}

	// Without a mutation the second pass is answered from the memo.
	t.Run("unchanged fleet is not re-scored", func(t *testing.T) {
		r := newMemoRig(t)
		f := r.fleet("bluefield2")
		if first, second := r.decide(f), r.decide(f); first == 0 || second != 0 {
			t.Fatalf("scored %d slots on the first pass and %d on the second, want some and none", first, second)
		}
	})

	// Churn that ends where it began — an arrival and its departure, a
	// drift that leaves the tail tenant as it was — moves the NIC's
	// version but not its residents, so the memo still answers.
	t.Run("churn back to the same residents is not re-scored", func(t *testing.T) {
		r := newMemoRig(t)
		f := r.fleet("bluefield2")
		r.decide(f)
		extra := r.tenant(5)
		f.place(0, extra)
		f.remove(0, extra.ID)
		tail, _ := f.remove(0, f.NICs[0].Tenants[1].ID)
		f.place(0, tail)
		if n := r.decide(f); n != 0 {
			t.Fatalf("re-scored %d slots after churn that restored every NIC's residents", n)
		}
	})
}

// TestChooseUnresolvedClass is the error path for a fleet NIC whose
// class the environment never resolved: Choose must reject with -1 (not
// offer NIC 0 beside the error) and count no slot as scored.
func TestChooseUnresolvedClass(t *testing.T) {
	r := newMemoRig(t)
	f := newFleet(t, r.env, 2)
	f.NICs[0].Class, f.NICs[0].key = "ghost", classKey{name: "ghost"}
	f.place(0, r.tenant(0))
	scored := r.reg.Counter("cluster_slots_scored_total", "policy", "yala")
	idx, err := r.sched.Scheduler.Choose(f, r.tenant(1).Arrival)
	if err == nil || idx != -1 {
		t.Fatalf("Choose = (%d, %v), want -1 and an error", idx, err)
	}
	if n := scored.Load(); n != 0 {
		t.Fatalf("%d slots counted as scored on the error path", n)
	}
}

// TestPredictionsCounter tells slots scored and predictor runs apart
// from the scheduler's own series: on the reference stream the class
// simulator's sequence memo runs fewer predictions than slots are
// scored, and a second replay on the same environment — a fresh
// scheduler, so its slots are all scored again — runs none.
func TestPredictionsCounter(t *testing.T) {
	sc := referenceScenario()
	env := testEnv(t, testModels(t))
	reg := obs.NewRegistry()
	env.SetObs(reg)
	if err := env.Prewarm(context.Background(), sc, []string{"yala"}); err != nil {
		t.Fatal(err)
	}
	scored := reg.Counter("cluster_slots_scored_total", "policy", "yala")
	predictions := reg.Counter("cluster_predictions_total", "policy", "yala")
	stream := sc.Stream()
	for replay := 0; replay < 2; replay++ {
		sched, err := NewScheduler("yala", env, sc.Seed)
		if err != nil {
			t.Fatal(err)
		}
		s0, p0 := scored.Load(), predictions.Load()
		if _, err := env.RunPolicyStream(context.Background(), sc, stream, sched); err != nil {
			t.Fatal(err)
		}
		s, p := scored.Load()-s0, predictions.Load()-p0
		t.Logf("replay %d: %d slots scored, %d predictions", replay, s, p)
		switch {
		case s == 0:
			t.Fatalf("replay %d scored no slot", replay)
		case replay == 0 && p >= s:
			t.Fatalf("first replay ran %d predictions for %d scored slots, want fewer", p, s)
		case replay == 1 && p != 0:
			t.Fatalf("second replay ran %d predictions, want 0", p)
		}
	}
}
