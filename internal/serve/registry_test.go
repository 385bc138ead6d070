package serve

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/profiling"
	"repro/internal/slomo"
)

// testTrainConfig is a minimal-cost Yala training setup for tests: a tiny
// random plan and a small regressor. Accuracy is irrelevant here — the
// serving tests assert determinism and plumbing, not model quality.
func testTrainConfig(seed uint64) core.TrainConfig {
	cfg := core.DefaultTrainConfig()
	cfg.Seed = seed
	cfg.Plan = profiling.Random(12, seed)
	cfg.PatternProbes = 1
	cfg.GBR = ml.GBRConfig{Trees: 25, LearningRate: 0.15, MaxDepth: 3, MinLeaf: 2, Subsample: 1, Seed: seed}
	return cfg
}

func testSLOMOConfig(seed uint64) slomo.Config {
	cfg := slomo.DefaultConfig()
	cfg.Seed = seed
	cfg.Samples = 12
	cfg.GBR = ml.GBRConfig{Trees: 25, LearningRate: 0.15, MaxDepth: 3, MinLeaf: 2, Subsample: 1, Seed: seed}
	return cfg
}

func testRegistryConfig(t *testing.T) RegistryConfig {
	t.Helper()
	return RegistryConfig{
		Dir:   t.TempDir(),
		Seed:  1,
		Train: testTrainConfig(1),
		SLOMO: testSLOMOConfig(1),
	}
}

// TestRegistryConcurrentLoad drives many concurrent Gets at one model and
// asserts exactly one training happens and every caller sees the same
// model instance (duplicate-load suppression). Run under -race.
func TestRegistryConcurrentLoad(t *testing.T) {
	reg := NewRegistry(testRegistryConfig(t))
	var trainings atomic.Int64
	reg.trainHook = func(Backend, string, string) { trainings.Add(1) }

	const goroutines = 16
	models := make([]backend.Model, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := reg.Model("yala", "FlowStats")
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			models[i] = m
		}(i)
	}
	wg.Wait()
	if n := trainings.Load(); n != 1 {
		t.Fatalf("expected exactly 1 training, got %d", n)
	}
	for i := 1; i < goroutines; i++ {
		if models[i] != models[0] {
			t.Fatalf("goroutine %d received a different model instance", i)
		}
	}
}

// TestRegistryConcurrentKeyedLoad hammers the registry with goroutines
// requesting a mix of identical and distinct (backend, hardware, NF)
// keys concurrently — run under -race — and asserts duplicate-load
// suppression holds per key: every distinct key trains exactly once and
// all requesters of a key receive the same model instance.
func TestRegistryConcurrentKeyedLoad(t *testing.T) {
	reg := NewRegistry(testRegistryConfig(t))
	type trainKey struct {
		backend Backend
		hw      string
		name    string
	}
	var mu sync.Mutex
	trainings := map[trainKey]int{}
	reg.trainHook = func(b Backend, hw, name string) {
		mu.Lock()
		trainings[trainKey{b, hw, name}]++
		mu.Unlock()
	}

	type req struct {
		backend string
		hw      string
		name    string
	}
	var reqs []req
	for _, hw := range []string{"", "bluefield2", "pensando"} {
		reqs = append(reqs, req{"yala", hw, "FlowStats"}, req{"slomo", hw, "FlowStats"})
	}

	const waves = 4 // every key requested by 4 goroutines at once
	results := make([][]backend.Model, len(reqs))
	for i := range results {
		results[i] = make([]backend.Model, waves)
	}
	var wg sync.WaitGroup
	for w := 0; w < waves; w++ {
		for i, r := range reqs {
			wg.Add(1)
			go func(w, i int, r req) {
				defer wg.Done()
				v, err := reg.ModelOn(r.backend, r.hw, r.name)
				if err != nil {
					t.Errorf("%s/%s@%q: %v", r.backend, r.name, r.hw, err)
					return
				}
				results[i][w] = v
			}(w, i, r)
		}
	}
	wg.Wait()

	for i, r := range reqs {
		for w := 1; w < waves; w++ {
			if results[i][w] != results[i][0] {
				t.Errorf("%s/%s@%q: wave %d received a different model instance", r.backend, r.name, r.hw, w)
			}
		}
	}
	// Distinct hardware keys that persist to distinct paths each train
	// once; nothing trains twice.
	for key, n := range trainings {
		if n != 1 {
			t.Errorf("key %+v trained %d times, want 1", key, n)
		}
	}
	if want := len(reqs); len(trainings) != want {
		t.Errorf("%d distinct keys trained, want %d", len(trainings), want)
	}

	// Reload drops every hardware variant of the (backend, NF) pair: the
	// next round re-reads each key from disk rather than retraining.
	reg.Reload("yala", "FlowStats")
	for _, hw := range []string{"", "bluefield2", "pensando"} {
		if _, err := reg.ModelOn("yala", hw, "FlowStats"); err != nil {
			t.Fatal(err)
		}
	}
	// Models persisted to disk on first training, so the reload round
	// loads files rather than retraining — training counts stay at 1.
	for key, n := range trainings {
		if n != 1 {
			t.Errorf("after reload, key %+v trained %d times, want 1 (should reload from disk)", key, n)
		}
	}
}

// TestRegistryRejectsBadHW covers hardware-key hygiene: keys that cannot
// name a file and keys outside the hardware-class catalogue.
func TestRegistryRejectsBadHW(t *testing.T) {
	reg := NewRegistry(testRegistryConfig(t))
	if _, err := reg.ModelOn("yala", "Bad/Key", "FlowStats"); err == nil {
		t.Fatal("path-hostile hardware key accepted")
	}
	if _, err := reg.ModelOn("yala", "mystery", "FlowStats"); err == nil {
		t.Fatal("hardware key outside the class catalogue accepted")
	}
	// An unregistered backend is an error naming the registered set.
	if _, err := reg.Model("mystery", "FlowStats"); err == nil {
		t.Fatal("unregistered backend accepted")
	}
}

// TestRegistryPersistsAndReloads checks the train-on-demand path writes a
// model file a second registry can load without retraining, and that
// Reload forces a re-read.
func TestRegistryPersistsAndReloads(t *testing.T) {
	cfg := testRegistryConfig(t)
	reg := NewRegistry(cfg)
	var trainings atomic.Int64
	reg.trainHook = func(Backend, string, string) { trainings.Add(1) }

	if _, err := reg.Model("yala", "ACL"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Model("slomo", "ACL"); err != nil {
		t.Fatal(err)
	}
	if n := trainings.Load(); n != 2 {
		t.Fatalf("expected 2 trainings (yala+slomo), got %d", n)
	}
	if _, err := core.LoadModelFile(filepath.Join(cfg.Dir, "ACL.yala.json")); err != nil {
		t.Fatalf("persisted yala model unreadable: %v", err)
	}
	sm, err := slomo.LoadModelFile(filepath.Join(cfg.Dir, "ACL.slomo.json"))
	if err != nil {
		t.Fatalf("persisted slomo model unreadable: %v", err)
	}
	if sm.Name != "ACL" || sm.SoloAtTrain <= 0 {
		t.Fatalf("persisted slomo model %q solo=%.0f, want ACL with positive solo", sm.Name, sm.SoloAtTrain)
	}

	// A fresh registry over the same directory must load, not train.
	reg2 := NewRegistry(cfg)
	reg2.trainHook = func(b Backend, hw, name string) {
		t.Errorf("unexpected retraining of %s/%s@%q", b, name, hw)
	}
	m, err := reg2.Model("yala", "ACL")
	if err != nil {
		t.Fatal(err)
	}
	if m.NF() != "ACL" {
		t.Fatalf("loaded model for %q, want ACL", m.NF())
	}
	if sm2, err := reg2.Model("slomo", "ACL"); err != nil || sm2.NF() != "ACL" {
		t.Fatalf("loaded slomo model %v (err %v), want ACL", sm2, err)
	}

	// Reload drops the in-memory copy; the next Get re-reads the file.
	before, err := reg2.Model("yala", "ACL")
	if err != nil {
		t.Fatal(err)
	}
	reg2.Reload("yala", "ACL")
	after, err := reg2.Model("yala", "ACL")
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Fatal("Reload did not evict the cached model")
	}

	infos := reg2.Models()
	if len(infos) != 2 {
		t.Fatalf("Models() = %+v, want 2 entries", infos)
	}
	for _, info := range infos {
		if info.NF != "ACL" || !info.OnDisk {
			t.Fatalf("unexpected model info %+v", info)
		}
	}
}

// TestRegistryReloadRace hammers hardware-keyed loads against
// concurrent Reloads — run under -race. Every load must return a valid
// model no matter how reloads interleave with in-flight loads; the stub
// backend keeps the hammer cheap (no training cost).
func TestRegistryReloadRace(t *testing.T) {
	reg := NewRegistry(testRegistryConfig(t))
	hws := []string{"", "bluefield2", "pensando"}

	stop := make(chan struct{})
	var reloaders sync.WaitGroup
	for i := 0; i < 2; i++ {
		reloaders.Add(1)
		go func() {
			defer reloaders.Done()
			for {
				select {
				case <-stop:
					return
				default:
					reg.Reload("fake", "FlowStats")
				}
			}
		}()
	}

	var loaders sync.WaitGroup
	for w := 0; w < 8; w++ {
		loaders.Add(1)
		go func(w int) {
			defer loaders.Done()
			for i := 0; i < 100; i++ {
				hw := hws[(w+i)%len(hws)]
				m, err := reg.ModelOn("fake", hw, "FlowStats")
				if err != nil || m == nil || m.NF() != "FlowStats" {
					t.Errorf("loader %d iter %d: m=%v err=%v", w, i, m, err)
					return
				}
			}
		}(w)
	}
	loaders.Wait()
	close(stop)
	reloaders.Wait()

	// The registry settles into a servable state: one more load per key.
	for _, hw := range hws {
		if _, err := reg.ModelOn("fake", hw, "FlowStats"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRegistryFailedLoadRetries ensures a failed load is not cached as a
// permanent error.
func TestRegistryFailedLoadRetries(t *testing.T) {
	reg := NewRegistry(testRegistryConfig(t))
	if _, err := reg.Model("yala", "NoSuchNF"); err == nil {
		t.Fatal("expected error for unknown NF")
	}
	// The failed entry must have been evicted so a valid name still works
	// and the bad name fails again rather than deadlocking.
	if _, err := reg.Model("yala", "NoSuchNF"); err == nil {
		t.Fatal("expected second failure for unknown NF")
	}
}
