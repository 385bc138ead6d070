package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/ml"
	"repro/internal/nicsim"
	"repro/internal/serve"
	"repro/internal/sim"
)

// buildDir is where the benchmark keeps what it builds inside the
// checkout; the root .gitignore names it.
const buildDir = ".bench_build"

// defaultModelDir is the model directory of this exact program: the
// directory name carries a hash of the running executable, so models
// trained by different code (any change to training rebuilds the binary)
// are never served, and model directories of other builds are removed.
// kind keeps full-size and smoke-test models apart.
func defaultModelDir(kind string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	dir := filepath.Join(buildDir, fmt.Sprintf("models-%s-%x", kind, h.Sum(nil)[:8]))
	stale, _ := filepath.Glob(filepath.Join(buildDir, "models-"+kind+"-*"))
	for _, d := range stale {
		if d != dir {
			os.RemoveAll(d)
		}
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// ensureModels makes sure the model directory holds a seed-1 yala model
// for every NF the workloads use, training the missing ones through the
// serving registry (two at a time) exactly as a server would on demand.
// Training costs tens of CPU-seconds, so it happens once per build of
// the program, not once per run; core.train_s_per_model times it afresh
// in every traced run.
func ensureModels(cfg *config, log io.Writer) error {
	reg := serve.NewRegistry(cfg.registry())
	t0 := time.Now()
	missing := 0
	sem := make(chan struct{}, 2) // one training per core
	errs := make([]error, len(fleetNFs))
	var wg sync.WaitGroup
	for i, nf := range fleetNFs {
		if _, err := os.Stat(filepath.Join(cfg.ModelDir, nf+".yala.json")); err != nil {
			missing++
		}
		wg.Add(1)
		go func(i int, nf string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			_, errs[i] = reg.Model(backend.DefaultName, nf)
		}(i, nf)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return fmt.Errorf("training models: %w", err)
	}
	if fails, last := reg.PersistFailures(); fails > 0 {
		return fmt.Errorf("persisting models to %s: %s", cfg.ModelDir, last)
	}
	if missing > 0 {
		fmt.Fprintf(log, "models: trained %d of %d into %s in %.1fs\n", missing, len(fleetNFs), cfg.ModelDir, time.Since(t0).Seconds())
	}
	return nil
}

// trainingRows times what a cold start would pay per model: one full
// training of the reference NF, and one regressor fit of the size that
// training performs. Both are timed once per invocation, however many
// workloads it runs.
func trainingRows(cfg *config, rows map[string]float64) error {
	if cfg.trained == nil {
		b, _ := backend.Get(backend.DefaultName)
		var opts any
		samples := len(backend.QuickYalaConfig(1).Plan.Samples)
		if cfg.Train.GBR.Trees > 0 {
			opts, samples = cfg.Train, len(cfg.Train.Plan.Samples)
		}
		t0 := time.Now()
		if _, err := b.Train(backend.TrainEnv{NIC: nicsim.BlueField2(), Seed: 1, Options: opts}, "ACL"); err != nil {
			return fmt.Errorf("training the reference model: %w", err)
		}
		trainS := time.Since(t0).Seconds()
		gbr, X, y := rungGBR(samples)
		t0 = time.Now()
		if _, err := ml.FitGBR(X, y, gbr); err != nil {
			return err
		}
		cfg.trained = map[string]float64{
			"core.train_s_per_model":      trainS,
			"profiling.samples_per_model": float64(samples),
			"ml.gbr_fit_ms":               float64(time.Since(t0).Nanoseconds()) / 1e6,
		}
	}
	for k, v := range cfg.trained {
		rows[k] = v
	}
	return nil
}

// rungGBR is the synthetic regression problem the ml rungs fit and
// evaluate: n rows of six features, the quick serving regressor.
func rungGBR(n int) (ml.GBRConfig, [][]float64, []float64) {
	rng := sim.NewRNG(1)
	X, y := make([][]float64, n), make([]float64, n)
	for i := range X {
		X[i] = make([]float64, 6)
		for j := range X[i] {
			X[i][j] = rng.Float64()
		}
		y[i] = 3*X[i][0] + X[i][1]*X[i][2] - X[i][5]
	}
	return backend.QuickYalaConfig(1).GBR, X, y
}
