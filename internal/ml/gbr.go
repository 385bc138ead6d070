package ml

import (
	"fmt"

	"repro/internal/sim"
)

// GBRConfig configures gradient-boosting regression. The defaults mirror
// the hyperparameter regime SLOMO uses with sklearn's
// GradientBoostingRegressor.
type GBRConfig struct {
	Trees        int
	LearningRate float64
	MaxDepth     int
	MinLeaf      int
	Subsample    float64 // fraction of samples per tree (1 = all)
	Seed         uint64
}

// DefaultGBRConfig is a reasonable general-purpose configuration.
func DefaultGBRConfig() GBRConfig {
	return GBRConfig{
		Trees:        220,
		LearningRate: 0.06,
		MaxDepth:     6,
		MinLeaf:      2,
		Subsample:    0.85,
		Seed:         1,
	}
}

// GBR is a fitted gradient-boosting regressor: a bias plus a sum of
// shrunken regression trees fitted to successive residuals.
type GBR struct {
	bias  float64
	rate  float64
	trees []*Tree
}

// FitGBR trains a gradient-boosting regressor with squared-error loss.
func FitGBR(X [][]float64, y []float64, cfg GBRConfig) (*GBR, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("ml: FitGBR with %d rows, %d targets", n, len(y))
	}
	if cfg.Trees <= 0 {
		return nil, fmt.Errorf("ml: FitGBR needs at least one tree")
	}
	if cfg.LearningRate <= 0 {
		return nil, fmt.Errorf("ml: FitGBR learning rate must be positive")
	}
	if cfg.Subsample <= 0 || cfg.Subsample > 1 {
		cfg.Subsample = 1
	}
	rng := sim.NewRNG(cfg.Seed)

	var bias float64
	for _, v := range y {
		bias += v
	}
	bias /= float64(n)

	g := &GBR{bias: bias, rate: cfg.LearningRate}
	pred := make([]float64, n)
	for i := range pred {
		pred[i] = bias
	}
	residual := make([]float64, n)
	tc := TreeConfig{MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf}

	for t := 0; t < cfg.Trees; t++ {
		for i := range residual {
			residual[i] = y[i] - pred[i]
		}
		sX, sY := X, residual
		if cfg.Subsample < 1 {
			m := int(cfg.Subsample * float64(n))
			if m < 2 {
				m = 2
			}
			perm := rng.Perm(n)[:m]
			sX = make([][]float64, m)
			sY = make([]float64, m)
			for j, p := range perm {
				sX[j] = X[p]
				sY[j] = residual[p]
			}
		}
		tree := FitTree(sX, sY, tc)
		g.trees = append(g.trees, tree)
		for i := range pred {
			pred[i] += cfg.LearningRate * tree.Predict(X[i])
		}
	}
	return g, nil
}

// Predict evaluates the ensemble at x.
func (g *GBR) Predict(x []float64) float64 {
	y := g.bias
	for _, t := range g.trees {
		y += g.rate * t.Predict(x)
	}
	return y
}
