package placement

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/traffic"
)

// sameScore compares two Scores bit for bit.
func sameScore(x, y Score) bool {
	return x.ResidentsOK == y.ResidentsOK &&
		math.Float64bits(x.Predicted) == math.Float64bits(y.Predicted) &&
		math.Float64bits(x.Solo) == math.Float64bits(y.Solo)
}

// TestScoreMemoMatchesReference asks one long-lived simulator a seeded,
// shuffled stream of Score calls — every question twice, so later
// answers may come from whatever the simulator kept of earlier ones —
// and holds each answer to referenceScore bit for bit. The stream covers
// what such reuse could get wrong: one member-type sequence under
// resident SLAs on both sides of the verdict (SLAs vary, predictions do
// not), a sequence and its reverse (feature accumulation is
// order-sensitive), duplicate members, set sizes from empty to nine
// members, a member without a model behind a failing resident (never
// reached, so no error) and ahead of one (an error), and SeedSolo and
// SetModel moving the generation between calls.
func TestScoreMemoMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("model training is slow")
	}
	s, _ := buildSim(t)
	rng := sim.NewRNG(25)
	trained := []string{"FlowStats", "ACL", "FlowClassifier", "FlowTracker"}
	var types []Arrival
	for _, name := range trained {
		for _, p := range []traffic.Profile{traffic.Default, {Flows: 4000, PktSize: 512, MTBR: 100}} {
			types = append(types, Arrival{Name: name, Profile: p})
		}
	}
	// NAT is measurable but has no model under either backend.
	bare := Arrival{Name: "NAT", Profile: traffic.Default}
	// SLAs no prediction can keep or break: the threshold is twice the
	// solo throughput, or below zero.
	const fail, pass = -1.0, 2.0
	with := func(a Arrival, sla float64) Arrival { a.SLA = sla; return a }
	drawn := func(seq ...Arrival) []Arrival {
		out := make([]Arrival, len(seq))
		for i, a := range seq {
			out[i] = with(a, 0.6*rng.Float64())
		}
		return out
	}

	type call struct {
		set     []Arrival
		a       Arrival
		backend string
		wantErr bool
		fixed   bool // the one sequence asked under many resident SLAs
	}
	var calls []call
	add := func(c call) {
		for _, b := range []string{"yala", "slomo"} {
			c.backend = b
			calls = append(calls, c)
		}
	}

	fixed := []Arrival{types[0], types[3], types[5]}
	for k := 0; k < 12; k++ {
		add(call{set: drawn(fixed...), a: types[6], fixed: true})
	}
	for _, slas := range [][]float64{{pass, pass, pass}, {fail, pass, pass}, {pass, pass, fail}} {
		set := make([]Arrival, len(fixed))
		for i, a := range fixed {
			set[i] = with(a, slas[i])
		}
		add(call{set: set, a: types[6], fixed: true})
	}

	// A sequence and its reorderings.
	for _, seq := range [][]Arrival{
		{types[1], types[2]}, {types[2], types[1]},
		{types[1], types[4], types[7]}, {types[7], types[4], types[1]}, {types[4], types[7], types[1]},
	} {
		add(call{set: drawn(seq...), a: types[3]})
		passing := make([]Arrival, len(seq))
		for i, a := range seq {
			passing[i] = with(a, pass)
		}
		add(call{set: passing, a: types[3]})
	}

	// Duplicate members, the newcomer among them.
	x, y := types[2], types[5]
	for _, seq := range [][]Arrival{{x, x}, {x, x, x}, {y, x, x}} {
		add(call{set: drawn(seq...), a: x})
	}
	add(call{set: []Arrival{with(x, pass), with(x, pass)}, a: x})

	// Every set size from empty to eight residents (nine members), drawn
	// and all-passing so the widest sequences are scored to the end.
	for n := 0; n <= 8; n++ {
		for k := 0; k < 2; k++ {
			seq := make([]Arrival, n)
			for i := range seq {
				seq[i] = types[rng.Intn(len(types))]
			}
			add(call{set: drawn(seq...), a: types[rng.Intn(len(types))]})
			passing := make([]Arrival, n)
			for i, a := range seq {
				passing[i] = with(a, pass)
			}
			add(call{set: passing, a: types[rng.Intn(len(types))]})
		}
	}

	// A member without a model surfaces only if the walk reaches it.
	add(call{set: []Arrival{with(types[0], fail), bare}, a: types[1]})
	add(call{set: []Arrival{with(types[0], pass), bare}, a: types[1], wantErr: true})
	add(call{set: []Arrival{bare, with(types[0], fail)}, a: types[1], wantErr: true})
	add(call{set: []Arrival{with(types[0], fail)}, a: bare})
	add(call{set: []Arrival{with(types[0], pass)}, a: bare, wantErr: true})
	add(call{a: bare, wantErr: true})

	seen := map[bool]int{}
	ops := make([]func(), 0, 2*len(calls)+8)
	for _, c := range append(calls, calls...) {
		ops = append(ops, func() {
			t.Helper()
			got, err := s.Score(c.set, c.a, PredictionAware(c.backend))
			if c.wantErr {
				_, missing := s.Model(c.backend, bare.Name)
				if err == nil || err.Error() != missing.Error() {
					t.Fatalf("%s %v + %v: error %v, want %v", c.backend, c.set, c.a, err, missing)
				}
				return
			}
			if err != nil {
				t.Fatalf("%s %v + %v: %v", c.backend, c.set, c.a, err)
			}
			if want := referenceScore(t, s, c.set, c.a, c.backend); !sameScore(got, want) {
				t.Fatalf("%s %v + %v: Score %+v, reference %+v", c.backend, c.set, c.a, got, want)
			}
			if c.fixed {
				seen[got.ResidentsOK]++
			}
		})
	}
	// Recalibrate solos (the throughput is the measured solo, the
	// counters feed every competitor's features) and swap models between
	// the trained NFs; NAT never gets one.
	for k := 0; k < 4; k++ {
		ops = append(ops, func() {
			a := types[rng.Intn(len(types))]
			meas, err := s.solo(a)
			if err != nil {
				t.Fatal(err)
			}
			recal := *meas
			recal.Throughput *= 0.5 + rng.Float64()
			recal.Counters.Add(meas.Counters)
			s.SeedSolo(a, recal)
		}, func() {
			for _, b := range []string{"yala", "slomo"} {
				m, err := s.Model(b, trained[rng.Intn(len(trained))])
				if err != nil {
					t.Fatal(err)
				}
				s.SetModel(b, trained[rng.Intn(len(trained))], m)
			}
		})
	}
	for i := len(ops) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		ops[i], ops[j] = ops[j], ops[i]
	}
	for _, op := range ops {
		op()
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("the fixed sequence's residents kept their SLAs %d times and broke them %d times, want both", seen[true], seen[false])
	}
}
