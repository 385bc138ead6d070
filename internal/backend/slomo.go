package backend

import (
	"fmt"

	"repro/internal/ml"
	"repro/internal/nicsim"
	"repro/internal/slomo"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

func init() { Register(slomoBackend{}) }

// SLOMOOptions configures slomo on-demand training: the sampling/GBR
// config plus the fixed traffic profile the baseline trains at. Zero
// values select the quick serving defaults.
type SLOMOOptions struct {
	Config  slomo.Config
	Profile traffic.Profile
}

// slomoBackend is the paper's baseline: a counter-aggregate black-box
// model trained at one profile and extrapolated by solo throughput.
type slomoBackend struct{}

type slomoModel struct {
	m *slomo.Model
}

func (m slomoModel) NF() string { return m.m.Name }

// WrapSLOMO adapts an already-trained slomo model into the backend
// handle.
func WrapSLOMO(m *slomo.Model) Model { return slomoModel{m} }

// QuickSLOMOConfig mirrors QuickYalaConfig for the baseline.
func QuickSLOMOConfig(seed uint64) slomo.Config {
	cfg := slomo.DefaultConfig()
	cfg.Seed = seed
	cfg.Samples = 48
	cfg.GBR = ml.GBRConfig{
		Trees:        60,
		LearningRate: 0.1,
		MaxDepth:     4,
		MinLeaf:      2,
		Subsample:    0.85,
		Seed:         seed,
	}
	return cfg
}

func (slomoBackend) Name() string { return "slomo" }

func (slomoBackend) Train(env TrainEnv, nf string) (Model, error) {
	opts, _ := env.Options.(SLOMOOptions)
	if opts.Config.Samples == 0 {
		opts.Config = QuickSLOMOConfig(env.Seed)
	}
	if opts.Profile == (traffic.Profile{}) {
		opts.Profile = traffic.Default
	}
	tb := testbed.New(env.NIC, env.Seed)
	m, err := slomo.Train(tb, nf, opts.Profile, opts.Config)
	if err != nil {
		return nil, err
	}
	return slomoModel{m}, nil
}

func (slomoBackend) own(m Model) (*slomo.Model, error) {
	sm, ok := m.(slomoModel)
	if !ok {
		return nil, fmt.Errorf("backend: slomo handed a foreign model %T", m)
	}
	return sm.m, nil
}

func (b slomoBackend) Predict(m Model, sc Scenario) (Prediction, error) {
	sm, err := b.own(m)
	if err != nil {
		return Prediction{}, err
	}
	if sc.Solo == nil {
		return Prediction{}, fmt.Errorf("backend: slomo requires a measured solo throughput")
	}
	// SLOMO extrapolates its fixed-profile sensitivity using the NF's
	// measured solo throughput at the requested profile (§7.1).
	solo, err := sc.Solo()
	if err != nil {
		return Prediction{}, err
	}
	var agg nicsim.Counters
	for _, c := range sc.Competitors {
		agg.Add(c.Solo.Counters)
	}
	return Prediction{
		SoloPPS:      solo,
		PredictedPPS: sm.PredictExtrapolated(agg, solo),
	}, nil
}

func (b slomoBackend) Save(m Model, path string) error {
	sm, err := b.own(m)
	if err != nil {
		return err
	}
	return sm.SaveFile(path)
}

func (slomoBackend) Load(path string) (Model, error) {
	m, err := slomo.LoadModelFile(path)
	if err != nil {
		return nil, err
	}
	return slomoModel{m}, nil
}
