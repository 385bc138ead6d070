package cluster

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/nicsim"
)

// TestClassCfgDeterministic is the regression test for the lint-found
// nondeterminism in onlineLoop.classCfg: it used to take the first
// match out of a map range, so two replays of one recorded run could
// train against different classEnv instances (and their separately
// warmed co-run caches) when a class name carried several core-budget
// overrides. The walk is over sorted keys now — the same env every
// time, regardless of construction order.
func TestClassCfgDeterministic(t *testing.T) {
	build := func(coreOrder []int) *Env {
		e := testEnv(t, nil)
		for _, cores := range coreOrder {
			if _, err := e.classEnv(ClassSpec{Class: "bluefield2", Cores: cores}); err != nil {
				t.Fatalf("classEnv(cores=%d): %v", cores, err)
			}
		}
		return e
	}
	want := classKey{name: "bluefield2", cores: 2}
	for _, order := range [][]int{{2, 3, 4}, {4, 3, 2}, {3, 2, 4}} {
		l := &onlineLoop{env: build(order)}
		for i := 0; i < 10; i++ {
			ce, err := l.classCfg("bluefield2")
			if err != nil {
				t.Fatal(err)
			}
			if ce.key != want {
				t.Fatalf("insertion order %v, lookup %d: classCfg chose %+v, want %+v", order, i, ce.key, want)
			}
		}
	}
}

// TestSortedClassKeysOrder pins the helper the determinism fixes hang
// off: keys come back ordered by (name, cores), independent of map
// insertion order.
func TestSortedClassKeysOrder(t *testing.T) {
	e := testEnv(t, nil)
	for _, spec := range []ClassSpec{
		{Class: "pensando", Cores: 2},
		{Class: "bluefield2", Cores: 4},
		{Class: "bluefield2", Cores: 2},
	} {
		if _, err := e.classEnv(spec); err != nil {
			t.Fatal(err)
		}
	}
	got := e.sortedClassKeys()
	want := []classKey{
		{}, // NewEnv's base environment
		{name: "bluefield2", cores: 2},
		{name: "bluefield2", cores: 4},
		{name: "pensando", cores: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sortedClassKeys = %+v, want %+v", got, want)
	}
}

// TestDecisionTimingIsReportingOnly is the regression test for the
// wallclock finding at orchestrator.decide: decision timing samples the
// host clock, which is fine exactly as long as it stays measurement.
// Two runs of one scenario under wildly different injected clocks must
// agree on every replay-visible field; only the latency report may
// move. If someone threads decide's stopwatch into scheduling state,
// this fails loudly.
func TestDecisionTimingIsReportingOnly(t *testing.T) {
	old := decisionClock
	defer func() { decisionClock = old }()

	runWith := func(step time.Duration) PolicyResult {
		var virtual time.Time
		decisionClock = func() time.Time {
			virtual = virtual.Add(step)
			return virtual
		}
		env := NewEnv(nicsim.BlueField2(), 1, MapModels{})
		sc := Scenario{NICs: 2, Arrivals: 8, Seed: 7, NFs: testNFs, Profiles: 2}.WithDefaults()
		policy, err := NewScheduler("firstfit", env, sc.Seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := env.RunPolicyStream(context.Background(), sc, sc.Stream(), policy)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	fast := runWith(time.Microsecond)
	slow := runWith(time.Hour)

	if fast.DecisionP50 >= slow.DecisionP50 {
		t.Fatalf("injected clock did not reach the latency report: fast p50 %v, slow p50 %v",
			fast.DecisionP50, slow.DecisionP50)
	}
	fast.DecisionP50, fast.DecisionP99 = 0, 0
	slow.DecisionP50, slow.DecisionP99 = 0, 0
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("wall clock leaked into replay-visible state:\n fast: %+v\n slow: %+v", fast, slow)
	}
}
