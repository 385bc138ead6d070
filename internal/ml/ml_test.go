package ml

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestMAPEBasics(t *testing.T) {
	if got := MAPE([]float64{110, 90}, []float64{100, 100}); math.Abs(got-10) > 1e-9 {
		t.Fatalf("MAPE = %v, want 10", got)
	}
	if got := MAPE([]float64{1}, []float64{0}); got != 0 {
		t.Fatalf("MAPE with zero truth = %v", got)
	}
	if got := MAPE(nil, nil); got != 0 {
		t.Fatalf("MAPE empty = %v", got)
	}
}

func TestAccWithin(t *testing.T) {
	pred := []float64{100, 104, 111, 95}
	truth := []float64{100, 100, 100, 100}
	if got := AccWithin(pred, truth, 0.05); math.Abs(got-75) > 1e-9 {
		t.Fatalf("±5%% acc = %v, want 75", got)
	}
	if got := AccWithin(pred, truth, 0.10); math.Abs(got-75) > 1e-9 {
		t.Fatalf("±10%% acc = %v, want 75", got)
	}
	if got := AccWithin(pred, truth, 0.12); math.Abs(got-100) > 1e-9 {
		t.Fatalf("±12%% acc = %v, want 100", got)
	}
}

func TestAccWithinAtLeastAsLooseToleranceProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		truth := make([]float64, len(raw))
		pred := make([]float64, len(raw))
		for i, v := range raw {
			truth[i] = 100
			pred[i] = 100 + math.Mod(math.Abs(v), 50)
		}
		return AccWithin(pred, truth, 0.10) >= AccWithin(pred, truth, 0.05)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileAndMedian(t *testing.T) {
	v := []float64{5, 1, 3, 2, 4}
	if got := Median(v); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := Quantile(v, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(v, 1); got != 5 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Quantile(v, 0.25); got != 2 {
		t.Fatalf("q25 = %v", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
	// Input must not be mutated.
	if v[0] != 5 {
		t.Fatal("Quantile mutated input")
	}
}

func TestFitLinearRecoversCoefficients(t *testing.T) {
	rng := sim.NewRNG(1)
	var X [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		a, b := rng.Range(-5, 5), rng.Range(-5, 5)
		X = append(X, []float64{a, b})
		y = append(y, 3+2*a-7*b)
	}
	m, err := FitLinear(X, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Intercept-3) > 1e-6 || math.Abs(m.Coef[0]-2) > 1e-6 || math.Abs(m.Coef[1]+7) > 1e-6 {
		t.Fatalf("fit = %+v", m)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	rng := sim.NewRNG(2)
	var X [][]float64
	var y []float64
	for i := 0; i < 2000; i++ {
		a := rng.Range(0, 10)
		X = append(X, []float64{a})
		y = append(y, 5+1.5*a+rng.Norm(0, 0.5))
	}
	m, err := FitLinear(X, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-1.5) > 0.05 || math.Abs(m.Intercept-5) > 0.3 {
		t.Fatalf("noisy fit off: %+v", m)
	}
}

func TestFitLinearSingular(t *testing.T) {
	// Perfectly collinear features without ridge: singular.
	X := [][]float64{{1, 2}, {2, 4}, {3, 6}}
	y := []float64{1, 2, 3}
	if _, err := FitLinear(X, y, 0); err == nil {
		t.Fatal("expected singular-matrix error")
	}
	// Ridge rescues it.
	if _, err := FitLinear(X, y, 1e-6); err != nil {
		t.Fatalf("ridge fit failed: %v", err)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear(nil, nil, 0); err == nil {
		t.Fatal("expected error for empty fit")
	}
	if _, err := FitLinear([][]float64{{1}, {2, 3}}, []float64{1, 2}, 0); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestTreeFitsStepFunction(t *testing.T) {
	var X [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		v := float64(i) / 20
		X = append(X, []float64{v})
		if v < 5 {
			y = append(y, 1)
		} else {
			y = append(y, 9)
		}
	}
	tree := FitTree(X, y, TreeConfig{MaxDepth: 3, MinLeaf: 2})
	if got := tree.Predict([]float64{2}); math.Abs(got-1) > 1e-9 {
		t.Fatalf("left leaf = %v", got)
	}
	if got := tree.Predict([]float64{8}); math.Abs(got-9) > 1e-9 {
		t.Fatalf("right leaf = %v", got)
	}
}

func TestTreeConstantTarget(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{5, 5, 5, 5}
	tree := FitTree(X, y, TreeConfig{MaxDepth: 5, MinLeaf: 1})
	if len(tree.nodes) != 1 {
		t.Fatalf("constant target grew %d nodes, want one leaf", len(tree.nodes))
	}
	if got := tree.Predict([]float64{10}); got != 5 {
		t.Fatalf("predict = %v", got)
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	rng := sim.NewRNG(3)
	var X [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		v := rng.Range(0, 10)
		X = append(X, []float64{v})
		y = append(y, math.Sin(v)*rng.Range(0.5, 1.5))
	}
	tree := FitTree(X, y, TreeConfig{MaxDepth: 3, MinLeaf: 1})
	if d := treeDepth(tree, 0); d > 3 {
		t.Fatalf("depth %d exceeds max 3", d)
	}
}

// treeDepth is the depth of the subtree at node n (a leaf is depth 0).
func treeDepth(t *Tree, n int32) int {
	node := &t.nodes[n]
	if node.Left < 0 {
		return 0
	}
	return 1 + max(treeDepth(t, node.Left), treeDepth(t, node.Right))
}

func TestTreePicksInformativeFeature(t *testing.T) {
	rng := sim.NewRNG(4)
	var X [][]float64
	var y []float64
	for i := 0; i < 300; i++ {
		noise := rng.Range(0, 100)
		signal := rng.Range(0, 10)
		X = append(X, []float64{noise, signal})
		y = append(y, signal*signal)
	}
	tree := FitTree(X, y, TreeConfig{MaxDepth: 1, MinLeaf: 5})
	if tree.nodes[0].Left < 0 {
		t.Fatal("no split found")
	}
	if tree.nodes[0].Feature != 1 {
		t.Fatalf("split on feature %d, want informative feature 1", tree.nodes[0].Feature)
	}
}

func TestGBRBeatsLinearOnNonlinear(t *testing.T) {
	rng := sim.NewRNG(5)
	target := func(x []float64) float64 {
		// Piecewise-linear with saturation, the shape memory contention
		// curves take.
		v := 100 - 8*math.Min(x[0], 6)
		return v * (1 + 0.05*x[1])
	}
	var train Dataset
	for i := 0; i < 800; i++ {
		x := []float64{rng.Range(0, 12), rng.Range(-1, 1)}
		train.Add(x, target(x)+rng.Norm(0, 0.5))
	}
	g, err := FitGBR(train.X, train.Y, DefaultGBRConfig())
	if err != nil {
		t.Fatal(err)
	}
	lin, err := FitLinear(train.X, train.Y, 0)
	if err != nil {
		t.Fatal(err)
	}
	var gbrPred, linPred, truth []float64
	for i := 0; i < 300; i++ {
		x := []float64{rng.Range(0, 12), rng.Range(-1, 1)}
		truth = append(truth, target(x))
		gbrPred = append(gbrPred, g.Predict(x))
		linPred = append(linPred, lin.Intercept+lin.Coef[0]*x[0]+lin.Coef[1]*x[1])
	}
	gm, lm := MAPE(gbrPred, truth), MAPE(linPred, truth)
	if gm >= lm {
		t.Fatalf("GBR MAPE %v not better than linear %v", gm, lm)
	}
	if gm > 3 {
		t.Fatalf("GBR MAPE %v too high on smooth target", gm)
	}
}

func TestGBRDeterministic(t *testing.T) {
	rng := sim.NewRNG(6)
	var X [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		v := rng.Range(0, 10)
		X = append(X, []float64{v})
		y = append(y, v*v)
	}
	cfg := DefaultGBRConfig()
	g1, err := FitGBR(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := FitGBR(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		x := []float64{float64(i) / 2}
		if g1.Predict(x) != g2.Predict(x) {
			t.Fatal("same seed, different predictions")
		}
	}
}

func TestGBRErrors(t *testing.T) {
	if _, err := FitGBR(nil, nil, DefaultGBRConfig()); err == nil {
		t.Fatal("expected error for empty fit")
	}
	cfg := DefaultGBRConfig()
	cfg.Trees = 0
	if _, err := FitGBR([][]float64{{1}}, []float64{1}, cfg); err == nil {
		t.Fatal("expected error for zero trees")
	}
	cfg = DefaultGBRConfig()
	cfg.LearningRate = 0
	if _, err := FitGBR([][]float64{{1}}, []float64{1}, cfg); err == nil {
		t.Fatal("expected error for zero learning rate")
	}
}

func TestDatasetAddCopies(t *testing.T) {
	var d Dataset
	x := []float64{1, 2}
	d.Add(x, 3)
	x[0] = 99
	if d.X[0][0] != 1 {
		t.Fatal("Add did not copy the feature vector")
	}
}
