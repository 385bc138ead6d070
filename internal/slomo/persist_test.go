package slomo

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/nicsim"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

func TestLoadModelRejectsGarbage(t *testing.T) {
	model := func(gbr string) string { return `{"name":"x","gbr":` + gbr + `}` }
	if _, err := decodeModel([]byte(model(`{"bias":1,"rate":0.1,"trees":[[{"f":0,"t":0,"l":-1,"r":-1,"v":2}]]}`))); err != nil {
		t.Fatalf("a one-leaf model did not load: %v", err)
	}
	for name, data := range map[string]string{
		"not json":      "not json",
		"no regressor":  `{"name":"x"}`,
		"zero rate":     model(`{"bias":1,"rate":0,"trees":[]}`),
		"null tree":     model(`{"bias":1,"rate":0.1,"trees":[null]}`),
		"self loop":     model(`{"bias":1,"rate":0.1,"trees":[[{"f":0,"t":1,"l":0,"r":0,"v":0}]]}`),
		"trailing junk": model(`{"bias":1,"rate":0.1,"trees":[]}`) + "}",
	} {
		if _, err := decodeModel([]byte(data)); err == nil {
			t.Errorf("%s: %s loaded", name, data)
		}
	}
}

// TestLoadIndentedArtifact holds Save's compact layout to the indented
// one it replaced: a file re-indented the way Save once wrote it loads
// to the same model, bit for bit.
func TestLoadIndentedArtifact(t *testing.T) {
	cfg := Config{Samples: 30, GBR: ml.GBRConfig{Trees: 20, LearningRate: 0.1, MaxDepth: 3, MinLeaf: 2, Subsample: 1, Seed: 1}, Seed: 1}
	model, err := Train(testbed.New(nicsim.BlueField2(), 25), "FlowStats", traffic.Default, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var compact, indented bytes.Buffer
	if err := model.Save(&compact); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(compact.Bytes(), []byte("\n")); n != 1 {
		t.Fatalf("Save wrote %d lines, want 1", n)
	}
	if err := json.Indent(&indented, compact.Bytes(), "", " "); err != nil {
		t.Fatal(err)
	}
	a, err := decodeModel(compact.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	b, err := decodeModel(indented.Bytes())
	if err != nil {
		t.Fatalf("the indented file did not load: %v", err)
	}
	if a.Name != b.Name || a.TrainProfile != b.TrainProfile || math.Float64bits(a.SoloAtTrain) != math.Float64bits(b.SoloAtTrain) {
		t.Fatalf("metadata differs: %+v vs %+v", a, b)
	}
	x, y := a.gbr.Form(), b.gbr.Form()
	if math.Float64bits(x.Bias) != math.Float64bits(y.Bias) || math.Float64bits(x.Rate) != math.Float64bits(y.Rate) || len(x.Trees) != len(y.Trees) {
		t.Fatal("the regressor differs between the compact and the indented file")
	}
	for i, nodes := range x.Trees {
		if len(nodes) != len(y.Trees[i]) {
			t.Fatalf("tree %d differs", i)
		}
		for j, n := range nodes {
			m := y.Trees[i][j]
			if n.Feature != m.Feature || n.Left != m.Left || n.Right != m.Right ||
				math.Float64bits(n.Threshold) != math.Float64bits(m.Threshold) || math.Float64bits(n.Value) != math.Float64bits(m.Value) {
				t.Fatalf("tree %d node %d differs: %+v vs %+v", i, j, n, m)
			}
		}
	}
}
