package placement

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/nicsim"
	"repro/internal/sim"
	"repro/internal/slomo"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

// testArrivals builds a deterministic arrival sequence over memory-only
// NFs (fast to model and to co-run).
func testArrivals(n int, seed uint64) []Arrival {
	names := []string{"FlowStats", "ACL", "FlowClassifier", "FlowTracker"}
	rng := sim.NewRNG(seed)
	seq := make([]Arrival, n)
	for i := range seq {
		seq[i] = Arrival{
			Name:    names[rng.Intn(len(names))],
			Profile: traffic.Default,
			SLA:     0.05 + 0.15*rng.Float64(),
		}
	}
	return seq
}

// buildSim trains models for the test NF pool and installs them through
// the backend interface; the raw Yala models are returned too, for
// tests that pin the simulator against the predictor invoked directly.
func buildSim(t *testing.T) (*Simulator, map[string]*core.Model) {
	t.Helper()
	tb := testbed.New(nicsim.BlueField2(), 31)
	names := []string{"FlowStats", "ACL", "FlowClassifier", "FlowTracker"}
	s := NewSimulator(tb)
	yala := map[string]*core.Model{}
	trainCfg := core.DefaultTrainConfig()
	for _, n := range names {
		m, err := core.NewTrainer(tb, trainCfg).Train(n)
		if err != nil {
			t.Fatal(err)
		}
		yala[n] = m
		s.SetModel("yala", n, backend.WrapYala(m))
		sm, err := slomo.Train(tb, n, traffic.Default, slomo.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		s.SetModel("slomo", n, backend.WrapSLOMO(sm))
	}
	return s, yala
}

func TestPlacementStrategies(t *testing.T) {
	if testing.Short() {
		t.Skip("placement integration test is slow")
	}
	s, _ := buildSim(t)
	seq := testArrivals(40, 1)

	mono, err := s.Place(seq, Monopolization)
	if err != nil {
		t.Fatal(err)
	}
	if mono.NICsUsed != len(seq) {
		t.Fatalf("monopolization used %d NICs, want %d", mono.NICsUsed, len(seq))
	}
	if mono.Violations != 0 {
		t.Fatalf("monopolization violated %d SLAs", mono.Violations)
	}

	greedy, err := s.Place(seq, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.NICsUsed >= mono.NICsUsed {
		t.Fatal("greedy should pack tighter than monopolization")
	}

	oracle, err := s.Place(seq, Oracle)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Violations != 0 {
		t.Fatalf("oracle violated %d SLAs", oracle.Violations)
	}

	yala, err := s.Place(seq, YalaAware)
	if err != nil {
		t.Fatal(err)
	}
	if yala.Violations > greedy.Violations {
		t.Fatalf("yala violations %d exceed greedy %d", yala.Violations, greedy.Violations)
	}
	// Yala should land near the oracle packing.
	if yala.NICsUsed > oracle.NICsUsed*2 {
		t.Fatalf("yala used %d NICs vs oracle %d", yala.NICsUsed, oracle.NICsUsed)
	}

	slomoRes, err := s.Place(seq, SLOMOAware)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("nics: mono=%d greedy=%d oracle=%d yala=%d slomo=%d",
		mono.NICsUsed, greedy.NICsUsed, oracle.NICsUsed, yala.NICsUsed, slomoRes.NICsUsed)
	t.Logf("violations: greedy=%d yala=%d slomo=%d",
		greedy.Violations, yala.Violations, slomoRes.Violations)
}

// referenceScore derives a Score the slow way: one Model-level Predict
// per member through PredictWith, no scorer and no memo.
func referenceScore(t *testing.T, s *Simulator, set []Arrival, a Arrival, backendName string) Score {
	t.Helper()
	predict := func(target Arrival, others []Arrival) (pred, solo float64) {
		m, err := s.Model(backendName, target.Name)
		if err != nil {
			t.Fatal(err)
		}
		if pred, err = s.PredictWith(backendName, m, target, others); err != nil {
			t.Fatal(err)
		}
		meas, err := s.solo(target)
		if err != nil {
			t.Fatal(err)
		}
		return pred, meas.Throughput
	}
	for i, r := range set {
		others := append(append(append([]Arrival(nil), set[:i]...), set[i+1:]...), a)
		if pred, solo := predict(r, others); pred < (1-r.SLA)*solo {
			return Score{}
		}
	}
	pred, solo := predict(a, set)
	return Score{ResidentsOK: true, Predicted: pred, Solo: solo}
}

// TestFeasibleBatchMatchesFeasible pins the feasibility primitives to
// each other and to the predictor: FeasibleBatch agrees with Feasible
// per set over a spread of resident sets, candidates and strategies —
// including sets at and over core capacity, and Oracle — and the Score
// under both equals the Model-level reference bit for bit, also after
// SeedSolo and SetModel have moved the generation under the simulator's
// scorers.
func TestFeasibleBatchMatchesFeasible(t *testing.T) {
	if testing.Short() {
		t.Skip("model training is slow")
	}
	s, _ := buildSim(t)
	pool := testArrivals(10, 7)
	sets := [][]Arrival{
		nil,
		{pool[0]},
		{pool[1], pool[2]},
		{pool[3], pool[4], pool[5]},
		pool[:4],
		pool[:5], // over the 4-per-NIC core budget → infeasible on cores
		{pool[6], pool[6]},
	}
	for _, strat := range []Strategy{YalaAware, SLOMOAware, Oracle} {
		for k, cand := range pool[6:9] {
			got, err := s.FeasibleBatch(sets, cand, strat)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(sets) {
				t.Fatalf("%v: got %d verdicts for %d sets", strat, len(got), len(sets))
			}
			for i, set := range sets {
				want, err := s.Feasible(set, cand, strat)
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want {
					t.Fatalf("%v candidate %d set %d: batch=%v, per-set=%v", strat, k, i, got[i], want)
				}
			}
		}
	}
	checkScores := func(when string) {
		t.Helper()
		for _, name := range []string{"yala", "slomo"} {
			for k, cand := range pool[6:9] {
				for i, set := range sets {
					got, err := s.Score(set, cand, PredictionAware(name))
					if err != nil {
						t.Fatal(err)
					}
					if want := referenceScore(t, s, set, cand, name); got != want {
						t.Fatalf("%s, %s candidate %d set %d: Score %+v, reference %+v", when, name, k, i, got, want)
					}
				}
			}
		}
	}
	checkScores("as trained")
	gen := s.Generation()
	meas, err := s.solo(pool[1])
	if err != nil {
		t.Fatal(err)
	}
	// Halve the throughput and double the counters: the first is the
	// measured solo, the second feeds every competitor's features.
	recal := *meas
	recal.Throughput *= 0.5
	recal.Counters.Add(meas.Counters)
	s.SeedSolo(pool[1], recal)
	checkScores("after SeedSolo")
	// Every candidate NF gets another NF's model.
	swap := map[string]string{"FlowStats": "ACL", "ACL": "FlowClassifier", "FlowClassifier": "FlowTracker", "FlowTracker": "FlowStats"}
	for _, name := range []string{"yala", "slomo"} {
		for _, cand := range pool[6:9] {
			m, err := s.Model(name, swap[cand.Name])
			if err != nil {
				t.Fatal(err)
			}
			s.SetModel(name, cand.Name, m)
		}
	}
	checkScores("after SetModel")
	if s.Generation() == gen {
		t.Fatal("SeedSolo and SetModel left the generation unmoved")
	}

	// A missing model surfaces as an error, exactly like Feasible.
	bare := NewSimulator(s.TB)
	if _, err := bare.FeasibleBatch(sets[:3], pool[0], YalaAware); err == nil {
		t.Fatal("expected error without Yala models")
	}
	// An unregistered prediction backend is an error, not a panic.
	if _, err := bare.FeasibleBatch(sets[:3], pool[0], PredictionAware("nope")); err == nil {
		t.Fatal("expected error for unregistered backend")
	}
}

func TestPlacementCoreCapacity(t *testing.T) {
	tb := testbed.New(nicsim.BlueField2(), 32)
	s := NewSimulator(tb)
	seq := testArrivals(9, 2)
	res, err := s.Place(seq, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	// 8 cores / 2 per NF = 4 NFs per NIC; 9 NFs need >= 3 NICs.
	if res.NICsUsed < 3 {
		t.Fatalf("used %d NICs for 9 NFs, capacity 4/NIC", res.NICsUsed)
	}
}

func TestPlacementUnknownStrategyModel(t *testing.T) {
	tb := testbed.New(nicsim.BlueField2(), 33)
	s := NewSimulator(tb)
	seq := testArrivals(6, 3)
	if _, err := s.Place(seq, YalaAware); err == nil {
		t.Fatal("expected error without Yala models")
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{
		Monopolization: "monopolization", Greedy: "greedy",
		SLOMOAware: "slomo", YalaAware: "yala", Oracle: "oracle",
	} {
		if s.String() != want {
			t.Errorf("%v.String() = %q", s, s.String())
		}
	}
}
