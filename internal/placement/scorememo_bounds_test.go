package placement

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/backend"
	"repro/internal/israce"
	"repro/internal/nicsim"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

// stubBackend predicts without a trained model: each competitor shaves
// a share of the target's solo throughput that depends on its position,
// so the answer is order-sensitive the way feature accumulation is.
type stubBackend struct{}

type stubModel string

func (m stubModel) NF() string { return string(m) }

func (stubBackend) Name() string { return "placement-stub" }

func (stubBackend) Train(_ backend.TrainEnv, nf string) (backend.Model, error) {
	return stubModel(nf), nil
}

func (stubBackend) Predict(_ backend.Model, sc backend.Scenario) (backend.Prediction, error) {
	solo, err := sc.Solo()
	if err != nil {
		return backend.Prediction{}, err
	}
	pred := solo
	for i, c := range sc.Competitors {
		pred -= pred * c.Solo.Throughput / (1e7 * float64(i+2))
	}
	return backend.Prediction{SoloPPS: solo, PredictedPPS: pred}, nil
}

func (stubBackend) Save(backend.Model, string) error { return fmt.Errorf("stub: no persistence") }

func (stubBackend) Load(string) (backend.Model, error) {
	return nil, fmt.Errorf("stub: no persistence")
}

func init() { backend.Register(stubBackend{}) }

var stubStrategy = PredictionAware("placement-stub")

// stubSim is a simulator with stub models for NFs "nf0".."nf{nfs-1}" and
// planted solos for each of them at flows 1..profiles: nothing is
// trained or simulated.
func stubSim(nfs, profiles int) (*Simulator, []Arrival) {
	s := NewSimulator(testbed.New(nicsim.BlueField2(), 1))
	var types []Arrival
	for i := 0; i < nfs; i++ {
		name := fmt.Sprintf("nf%d", i)
		s.SetModel(stubStrategy.Backend(), name, stubModel(name))
		for f := 1; f <= profiles; f++ {
			a := Arrival{Name: name, Profile: traffic.Profile{Flows: f, PktSize: 64}, SLA: 0.5}
			s.SeedSolo(a, nicsim.Measurement{Throughput: 1e6 + 1e5*float64(i) + float64(f)})
			types = append(types, a)
		}
	}
	return s, types
}

// TestScoreHitAllocs holds a warmed Score memo hit to zero allocations.
func TestScoreHitAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s, types := stubSim(2, 2)
	set := types[:3]
	for _, a := range types[:2] {
		if _, err := s.Score(set, a, stubStrategy); err != nil {
			t.Fatal(err)
		}
	}
	a := types[3]
	if _, err := s.Score(set, a, stubStrategy); err != nil {
		t.Fatal(err)
	}
	before := s.Predictions()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := s.Score(set, a, stubStrategy); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a memo hit allocated %v times, want 0", n)
	}
	if s.Predictions() != before {
		t.Fatalf("memo hits ran %d predictions", s.Predictions()-before)
	}
}

// scorerOf returns the simulator's stub-backend scorer.
func scorerOf(t *testing.T, s *Simulator) *scorer {
	t.Helper()
	e := s.scorers[stubStrategy.Backend()]
	if e == nil {
		t.Fatal("no scorer built")
	}
	return e
}

// TestScoreMemoBounds covers what never enters the sequence memo and
// what keeps it bounded: a one-shot Score allocates no table; sequences
// wider than a key and members with a NaN profile bypass it without
// interning anything; the intern table and the entry count are each
// cleared wholesale at their caps, and answers stay exact across the
// clear.
func TestScoreMemoBounds(t *testing.T) {
	s, types := stubSim(2, 2)
	score := func(set []Arrival, a Arrival) Score {
		t.Helper()
		sc, err := s.Score(set, a, stubStrategy)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	first := score(types[:2], types[2])
	if e := scorerOf(t, s); e.ids != nil || e.memo != nil {
		t.Fatal("a one-shot Score allocated the memo's tables")
	}
	before := s.Predictions()
	if !sameScore(score(types[:2], types[2]), first) || s.Predictions() != before {
		t.Fatal("the first sequence was not answered from its inline entry")
	}

	wide := make([]Arrival, seqWidth)
	for i := range wide {
		wide[i] = types[i%len(types)]
	}
	score(types[1:2], types[3]) // builds the tables
	e := scorerOf(t, s)
	ids, entries := len(e.ids), len(e.memo)
	score(wide, types[0])
	before = s.Predictions()
	score(wide, types[0])
	if s.Predictions() == before {
		t.Fatalf("a %d-member sequence was memoized", seqWidth+1)
	}
	nan := Arrival{Name: "nf9", Profile: traffic.Profile{Flows: 1, MTBR: math.NaN()}}
	for i := 0; i < 3; i++ {
		if e.scores(types[:1], nan) != nil || e.scores([]Arrival{nan}, types[0]) != nil {
			t.Fatal("a NaN profile entered the memo")
		}
	}
	if len(e.ids) != ids || len(e.memo) != entries {
		t.Fatalf("bypassed sequences grew the memo: %d → %d types, %d → %d entries", ids, len(e.ids), entries, len(e.memo))
	}

	// One more type than the intern table holds, each in a sequence of
	// its own, answered exactly before and after the clear.
	s, types = stubSim(1, maxSeqTypes+1)
	ref := NewSimulator(s.TB)
	ref.soloCache, ref.models = s.soloCache, s.models
	check := func(set []Arrival, a Arrival) {
		t.Helper()
		want, err := ref.Score(set, a, stubStrategy)
		if err != nil {
			t.Fatal(err)
		}
		// A fresh reference scorer per call: its first sequence only.
		ref.gen++
		if got := score(set, a); !sameScore(got, want) {
			t.Fatalf("%v + %v: Score %+v, fresh %+v", set, a, got, want)
		}
	}
	for i := 1; i < len(types); i++ {
		check(types[i-1:i], types[i])
		if e := scorerOf(t, s); len(e.ids) > maxSeqTypes || len(e.memo) > maxSeqEntries {
			t.Fatalf("memo grew to %d types and %d entries", len(e.ids), len(e.memo))
		}
	}
	check(types[:1], types[1])

	// One more sequence than the entry table holds.
	s, types = stubSim(1, 200)
	ref.soloCache, ref.models = s.soloCache, s.models
	for n := 0; n <= maxSeqEntries; n++ {
		i, j := n%len(types), n/len(types)
		check(types[i:i+1], types[j])
		if e := scorerOf(t, s); len(e.memo) > maxSeqEntries {
			t.Fatalf("memo grew to %d entries", len(e.memo))
		}
	}
	check(types[:1], types[0])
}

// TestScoreHotCacheClearedWithTables holds the scorer's direct-mapped
// caches to the tables they front. Clearing the intern table hands a
// cached type's number to another type, so neither a type nor a
// sequence cached under the old numbers may answer afterwards.
func TestScoreHotCacheClearedWithTables(t *testing.T) {
	s, types := stubSim(1, maxSeqTypes+3)
	ref := NewSimulator(s.TB)
	ref.soloCache, ref.models = s.soloCache, s.models
	check := func(set []Arrival, a Arrival) {
		t.Helper()
		want, err := ref.Score(set, a, stubStrategy)
		if err != nil {
			t.Fatal(err)
		}
		ref.gen++
		got, err := s.Score(set, a, stubStrategy)
		if err != nil {
			t.Fatal(err)
		}
		if !sameScore(got, want) {
			t.Fatalf("%v + %v: Score %+v, fresh %+v", set, a, got, want)
		}
	}
	last := len(types) - 1
	check(types[:1], types[1])
	check(types[1:2], types[0]) // builds the tables: types 0 and 1 are numbered 0 and 1
	e := scorerOf(t, s)
	for i := 2; len(e.ids) < maxSeqTypes-2; i++ {
		e.intern(&types[i])
	}
	// Both types and both sequences cached under the old numbers.
	check(types[:1], types[1])
	check(types[1:2], types[0])
	check(types[last-2:last-1], types[last-1]) // fills the table
	// Clears it: the never-seen type last takes number 0, type 0 number 1.
	check(types[last:], types[0])
	check(types[:1], types[0])
	check(types[1:2], types[0])
}

// BenchmarkScoreHit times memo hits the way a scheduling decision
// makes them: one newcomer scored beside several resident sets.
func BenchmarkScoreHit(b *testing.B) {
	s, types := stubSim(2, 2)
	sets := [][]Arrival{types[:1], types[1:3], types[3:], types[:3]}
	for _, a := range types {
		for _, set := range sets {
			if _, err := s.Score(set, a, stubStrategy); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := types[i/len(sets)%len(types)]
		if _, err := s.Score(sets[i%len(sets)], a, stubStrategy); err != nil {
			b.Fatal(err)
		}
	}
}
