// Package experiments regenerates every table and figure of the paper's
// evaluation (§2's motivating figures and §7's results) on the simulated
// testbed. Each experiment returns a Report with the same rows/series the
// paper presents; cmd/experiments runs them and prints each in paper-style
// form (go run ./cmd/experiments -run table2).
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/nicsim"
	"repro/internal/slomo"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

// Lab is the shared experimental context: one testbed plus caches of
// trained Yala and SLOMO models, since several experiments reuse the same
// NF models.
type Lab struct {
	TB *testbed.Testbed
	// Scale trades experiment size for runtime: 1.0 runs the full
	// evaluation protocol, smaller values shrink sample counts
	// proportionally (minimums keep statistics meaningful).
	Scale float64
	Seed  uint64

	yala    map[string]*core.Model
	slomoM  map[string]*slomo.Model
	fixedTA map[string]*core.Model // traffic-agnostic ablation models
}

// NewLab returns a lab on the BlueField-2 preset.
func NewLab(seed uint64, scale float64) *Lab {
	return NewLabOn(nicsim.BlueField2(), seed, scale)
}

// NewLabOn returns a lab on an explicit NIC configuration (the Pensando
// generalization experiment uses this).
func NewLabOn(cfg nicsim.Config, seed uint64, scale float64) *Lab {
	if scale <= 0 {
		scale = 1
	}
	return &Lab{
		TB:      testbed.New(cfg, seed),
		Scale:   scale,
		Seed:    seed,
		yala:    map[string]*core.Model{},
		slomoM:  map[string]*slomo.Model{},
		fixedTA: map[string]*core.Model{},
	}
}

// n scales a full-protocol count, with a floor.
func (l *Lab) n(full, min int) int {
	v := int(float64(full) * l.Scale)
	if v < min {
		v = min
	}
	return v
}

// Yala returns the cached Yala model for an NF, training it on first use
// with the default (adaptive-profiling) configuration.
func (l *Lab) Yala(name string) (*core.Model, error) {
	if m, ok := l.yala[name]; ok {
		return m, nil
	}
	cfg := core.DefaultTrainConfig()
	cfg.Seed = l.Seed
	m, err := core.NewTrainer(l.TB, cfg).Train(name)
	if err != nil {
		return nil, fmt.Errorf("experiments: training yala/%s: %w", name, err)
	}
	l.yala[name] = m
	return m, nil
}

// SLOMO returns the cached SLOMO baseline model for an NF, trained at the
// default traffic profile.
func (l *Lab) SLOMO(name string) (*slomo.Model, error) {
	if m, ok := l.slomoM[name]; ok {
		return m, nil
	}
	cfg := slomo.DefaultConfig()
	cfg.Seed = l.Seed
	m, err := slomo.Train(l.TB, name, traffic.Default, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: training slomo/%s: %w", name, err)
	}
	l.slomoM[name] = m
	return m, nil
}

// soloAt returns the NF's measured solo throughput at a profile (SLOMO's
// extrapolation input).
func (l *Lab) soloAt(name string, prof traffic.Profile) (float64, error) {
	m, err := l.TB.SoloNF(name, prof)
	if err != nil {
		return 0, err
	}
	return m.Throughput, nil
}
