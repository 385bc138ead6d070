package cluster

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/israce"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/traffic"
)

// benchFleet builds a half-loaded fleet over a prewarmed environment —
// the steady state the scheduling hot path runs in.
func benchFleet(tb testing.TB, env *Env, nics int) *Fleet {
	tb.Helper()
	sc := Scenario{NICs: nics, NFs: testNFs, Profiles: 2, Seed: 1}.WithDefaults()
	if err := env.Prewarm(context.Background(), sc, []string{"yala", "slomo"}); err != nil {
		tb.Fatal(err)
	}
	pool := sc.ProfilePool()
	f := newFleet(tb, env, nics)
	id := 0
	for i := 0; i < nics; i++ {
		for j := 0; j < 1+i%2; j++ {
			f.place(i, Tenant{ID: id, Arrival: placement.Arrival{
				Name:    testNFs[id%len(testNFs)],
				Profile: pool[id%len(pool)],
				SLA:     0.5,
			}})
			id++
		}
	}
	return f
}

// benchChoose measures one policy's scheduling decision over a
// half-loaded fleet of the given size — the hot path every arrival,
// drift and migration goes through. The fleet is unchanged between
// decisions, so a guided policy answers every visited NIC from its memo.
func benchChoose(b *testing.B, policy string, nics int) {
	env := testEnv(b, testModels(b))
	f := benchFleet(b, env, nics)
	a := placement.Arrival{Name: "FlowStats", Profile: traffic.Default, SLA: 0.2}
	sched, err := NewScheduler(policy, env, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sched.Choose(f, a); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Choose(f, a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChooseYala(b *testing.B) {
	for _, nics := range []int{32, 1024, 10000} {
		b.Run(fmt.Sprintf("nics=%d", nics), func(b *testing.B) { benchChoose(b, "yala", nics) })
	}
}
func BenchmarkChooseSLOMO(b *testing.B)    { benchChoose(b, "slomo", 32) }
func BenchmarkChooseFirstFit(b *testing.B) { benchChoose(b, "firstfit", 32) }

// TestChooseAllocs holds a memo-hit decision to zero allocations: once
// every NIC a walk visits has been scored for the arrival's type, a
// decision reads the fleet's index and the memo and nothing else.
func TestChooseAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	env := testEnv(t, testModels(t))
	env.SetObs(obs.NewRegistry())
	f := benchFleet(t, env, 256)
	sched, err := NewScheduler("yala", env, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sla := range []float64{0.2, 0.9} {
		a := placement.Arrival{Name: "FlowStats", Profile: traffic.Default, SLA: sla}
		if _, err := sched.Choose(f, a); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := sched.Choose(f, a); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("a memo-hit decision (SLA %.1f) allocated %v times, want 0", sla, n)
		}
	}
}

// referenceScenario is the committed benchmark's 16-NIC/120-arrival
// reference shape (the default fleet and stream sizes over the test NF
// pool, so tiny-model training stays cheap).
func referenceScenario() Scenario {
	return Scenario{NICs: 16, Arrivals: 120, NFs: testNFs, Profiles: 4, Seed: 1, DriftProb: DefaultDriftProb}.WithDefaults()
}

// refEvent is one scheduling-relevant event in the reference replay: an
// arrival offered to the scheduler, or a departure freeing its slot.
type refEvent struct {
	at     float64
	spec   TenantSpec
	depart int // tenant ID to remove; -1 for arrivals
}

// referenceEvents flattens a stream into time-ordered arrivals and
// departures so the benchmark exercises the scheduler against the
// realistic occupancy the stream produces, without paying for
// ground-truth enforcement (which is not the scheduling hot path).
func referenceEvents(stream []TenantSpec) []refEvent {
	events := make([]refEvent, 0, 2*len(stream))
	for _, s := range stream {
		events = append(events, refEvent{at: s.At, spec: s, depart: -1})
		events = append(events, refEvent{at: s.At + s.Lifetime, depart: s.ID})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	return events
}

// playReference drives one full pass of the reference decisions.
func playReference(f *Fleet, sched Scheduler, events []refEvent) error {
	for _, ev := range events {
		if ev.depart >= 0 {
			if i := f.locate(ev.depart); i >= 0 {
				f.remove(i, ev.depart)
			}
			continue
		}
		idx, err := sched.Choose(f, ev.spec.Arrival)
		if err != nil {
			return err
		}
		if idx >= 0 {
			f.place(idx, ev.spec.Tenant)
		}
	}
	return nil
}

// BenchmarkScheduleReference is the package's scheduler micro-benchmark:
// all 120 reference scheduling decisions (plus fleet bookkeeping) per
// iteration, each on a fresh fleet and scheduler as a run would start.
// bench's fleet-sched workload is the gate of record.
func BenchmarkScheduleReference(b *testing.B) {
	env := testEnv(b, testModels(b))
	sc := referenceScenario()
	if err := env.Prewarm(context.Background(), sc, []string{"yala"}); err != nil {
		b.Fatal(err)
	}
	events := referenceEvents(sc.Stream())
	pass := func() {
		f, err := env.ScenarioFleet(sc)
		if err != nil {
			b.Fatal(err)
		}
		sched, err := NewScheduler("yala", env, sc.Seed)
		if err != nil {
			b.Fatal(err)
		}
		if err := playReference(f, sched, events); err != nil {
			b.Fatal(err)
		}
	}
	// One warm pass populates the simulator's measurement caches so the
	// timed passes measure scheduling, not first-touch simulation.
	pass()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}
