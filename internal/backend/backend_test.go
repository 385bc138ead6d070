package backend

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/nicsim"
	"repro/internal/profiling"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

// tinyYala is a minimal-cost training config: these tests assert
// interface plumbing and save/load fidelity, not model quality.
func tinyYala(seed uint64) core.TrainConfig {
	cfg := core.DefaultTrainConfig()
	cfg.Seed = seed
	cfg.Plan = profiling.Random(12, seed)
	cfg.PatternProbes = 1
	cfg.GBR = ml.GBRConfig{Trees: 25, LearningRate: 0.15, MaxDepth: 3, MinLeaf: 2, Subsample: 1, Seed: seed}
	return cfg
}

func tinySLOMO(seed uint64) SLOMOOptions {
	cfg := QuickSLOMOConfig(seed)
	cfg.Samples = 12
	cfg.GBR = ml.GBRConfig{Trees: 25, LearningRate: 0.15, MaxDepth: 3, MinLeaf: 2, Subsample: 1, Seed: seed}
	return SLOMOOptions{Config: cfg}
}

func TestBuiltinsRegistered(t *testing.T) {
	for _, name := range []string{"yala", "slomo"} {
		b, ok := Get(name)
		if !ok || b.Name() != name {
			t.Fatalf("builtin %q not registered", name)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("unregistered backend resolved")
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted/unique: %v", names)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(yalaBackend{})
}

// scenario builds a Scenario over measured solos on a shared testbed.
func scenario(t *testing.T, tb *testbed.Testbed, comps []string, solo float64) Scenario {
	t.Helper()
	sc := Scenario{
		Profile: traffic.Default,
		Solo:    func() (float64, error) { return solo, nil },
	}
	for _, name := range comps {
		m, err := tb.SoloNF(name, traffic.Default)
		if err != nil {
			t.Fatal(err)
		}
		mm := m
		sc.Competitors = append(sc.Competitors, Competitor{NF: name, Profile: traffic.Default, Solo: &mm})
	}
	return sc
}

// TestBuiltinRoundTrip trains each builtin, saves and reloads it, and
// asserts the reloaded model predicts identically — plus foreign-model
// rejection and batch/plain agreement.
func TestBuiltinRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("model training is slow")
	}
	env := TrainEnv{NIC: nicsim.BlueField2(), Seed: 1}
	tb := testbed.New(env.NIC, env.Seed)
	soloM, err := tb.SoloNF("FlowStats", traffic.Default)
	if err != nil {
		t.Fatal(err)
	}
	opts := map[string]any{"yala": tinyYala(1), "slomo": tinySLOMO(1)}
	dir := t.TempDir()
	for _, name := range []string{"yala", "slomo"} {
		b, _ := Get(name)
		env.Options = opts[name]
		m, err := b.Train(env, "FlowStats")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.NF() != "FlowStats" {
			t.Fatalf("%s: NF() = %q", name, m.NF())
		}
		sc := scenario(t, tb, []string{"ACL", "NAT"}, soloM.Throughput)
		pred, err := b.Predict(m, sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pred.PredictedPPS <= 0 || pred.SoloPPS <= 0 {
			t.Fatalf("%s: implausible prediction %+v", name, pred)
		}

		path := filepath.Join(dir, name+".json")
		if err := b.Save(m, path); err != nil {
			t.Fatal(err)
		}
		loaded, err := b.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		pred2, err := b.Predict(loaded, sc)
		if err != nil {
			t.Fatal(err)
		}
		if pred2.PredictedPPS != pred.PredictedPPS || pred2.SoloPPS != pred.SoloPPS {
			t.Fatalf("%s: reloaded model diverged: %+v vs %+v", name, pred2, pred)
		}

		// The throughput-only adapter agrees exactly with the plain path.
		batch := NewBatch(b)
		got, err := batch.Predict(m, Key{NF: "FlowStats", Profile: traffic.Default}, sc.Competitors, soloM.Throughput)
		if err != nil {
			t.Fatal(err)
		}
		if got != pred.PredictedPPS {
			t.Fatalf("%s: batch %g != plain %g", name, got, pred.PredictedPPS)
		}

		// A foreign model handle errors instead of panicking.
		other := "yala"
		if name == "yala" {
			other = "slomo"
		}
		ob, _ := Get(other)
		if _, err := ob.Predict(m, sc); err == nil {
			t.Fatalf("%s model accepted by %s backend", name, other)
		}
	}
}

// stubBackend is a registration-only backend for the concurrency test.
type stubBackend struct{ name string }

func (s stubBackend) Name() string                                { return s.name }
func (s stubBackend) Train(TrainEnv, string) (Model, error)       { return nil, fmt.Errorf("stub") }
func (s stubBackend) Predict(Model, Scenario) (Prediction, error) { return Prediction{}, nil }
func (s stubBackend) Save(Model, string) error                    { return nil }
func (s stubBackend) Load(string) (Model, error)                  { return nil, fmt.Errorf("stub") }

// TestRegisterConcurrent hammers Register, Get and Names from many
// goroutines — run under -race — to lock in the registry's
// thread-safety.
func TestRegisterConcurrent(t *testing.T) {
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("race-stub-%d", i)
			Register(stubBackend{name: name})
			if _, ok := Get(name); !ok {
				t.Errorf("backend %s missing right after Register", name)
			}
			Names() // concurrent reads must not race the writes
		}(i)
	}
	wg.Wait()
	if len(Names()) < n {
		t.Fatalf("Names() lists %d backends, want at least %d", len(Names()), n)
	}
}
