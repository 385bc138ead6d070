package backend

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/profiling"
	"repro/internal/testbed"
)

func init() { Register(yalaBackend{}) }

// yalaBackend is the paper's predictor: per-resource white/black-box
// models combined by execution-pattern composition (internal/core).
type yalaBackend struct{}

// yalaModel wraps the concrete trained model behind the opaque handle.
type yalaModel struct {
	m *core.Model
}

func (m yalaModel) NF() string { return m.m.Name }

// WrapYala adapts an already-trained core model into the backend
// handle — the bridge for callers (tests, experiments) that train
// offline with their own configuration and feed models in directly.
func WrapYala(m *core.Model) Model { return yalaModel{m} }

// QuickYalaConfig is a reduced-cost Yala training configuration for
// on-demand training in a serving context: a small random profiling
// plan and a slimmer regressor. Accuracy is below the paper's full
// protocol but training completes in well under a second per NF, which
// is what an online admission path can afford. Offline-trained full
// models in a model directory always take precedence.
func QuickYalaConfig(seed uint64) core.TrainConfig {
	cfg := core.DefaultTrainConfig()
	cfg.Seed = seed
	cfg.Plan = profiling.Random(48, seed)
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

func (yalaBackend) Name() string { return "yala" }

func (yalaBackend) Train(env TrainEnv, nf string) (Model, error) {
	cfg, _ := env.Options.(core.TrainConfig)
	if cfg.GBR.Trees == 0 {
		cfg = QuickYalaConfig(env.Seed)
	}
	// A fresh testbed per training keeps concurrent trainings independent
	// (testbeds cache unsynchronized) and the result deterministic.
	tb := testbed.New(env.NIC, env.Seed)
	m, err := core.NewTrainer(tb, cfg).Train(nf)
	if err != nil {
		return nil, err
	}
	return yalaModel{m}, nil
}

// own asserts the handle came from this backend.
func (yalaBackend) own(m Model) (*core.Model, error) {
	ym, ok := m.(yalaModel)
	if !ok {
		return nil, fmt.Errorf("backend: yala handed a foreign model %T", m)
	}
	return ym.m, nil
}

func (b yalaBackend) Predict(m Model, sc Scenario) (Prediction, error) {
	ym, err := b.own(m)
	if err != nil {
		return Prediction{}, err
	}
	comps := make([]core.Competitor, 0, len(sc.Competitors))
	for _, c := range sc.Competitors {
		comps = append(comps, core.CompetitorFromMeasurement(*c.Solo))
	}
	pred := ym.Predict(sc.Profile, comps)
	out := Prediction{
		SoloPPS:        pred.Solo,
		PredictedPPS:   pred.Throughput,
		Bottleneck:     pred.Bottleneck.String(),
		PerResourcePPS: map[string]float64{},
	}
	for res, t := range pred.PerResource {
		out.PerResourcePPS[res.String()] = t
	}
	return out, nil
}

func (b yalaBackend) Save(m Model, path string) error {
	ym, err := b.own(m)
	if err != nil {
		return err
	}
	return ym.SaveFile(path)
}

func (yalaBackend) Load(path string) (Model, error) {
	m, err := core.LoadModelFile(path)
	if err != nil {
		return nil, err
	}
	return yalaModel{m}, nil
}
