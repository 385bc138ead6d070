package core

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nicsim"
	"repro/internal/profiling"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	tb := testbed.New(nicsim.BlueField2(), 71)
	cfg := DefaultTrainConfig()
	cfg.Plan = profiling.Random(60, 5) // small: round-trip test only
	model, err := NewTrainer(tb, cfg).Train("NIDS")
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if loaded.Name != model.Name || loaded.Pattern != model.Pattern {
		t.Fatalf("metadata changed: %s/%v", loaded.Name, loaded.Pattern)
	}
	comp := Competitor{
		Counters: nicsim.Counters{L2CRD: 70e6, L2CWR: 30e6, MEMRD: 25e6, MEMWR: 10e6, WSS: 8 << 20},
		Accel: map[nicsim.AccelKind]AccelLoad{
			nicsim.AccelRegex: {Queues: 1, ServiceSec: 900e-9, OfferedReq: 0.4e6},
		},
	}
	for _, prof := range []traffic.Profile{traffic.Default, traffic.Default.With(traffic.AttrMTBR, 1000)} {
		a := model.Predict(prof, []Competitor{comp})
		b := loaded.Predict(prof, []Competitor{comp})
		if a.Throughput != b.Throughput || a.Bottleneck != b.Bottleneck {
			t.Fatalf("prediction changed after round trip: %v vs %v", a, b)
		}
	}
}

func TestModelSaveLoadFile(t *testing.T) {
	tb := testbed.New(nicsim.BlueField2(), 72)
	cfg := DefaultTrainConfig()
	cfg.Plan = profiling.Random(40, 5)
	model, err := NewTrainer(tb, cfg).Train("ACL")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "acl.json")
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Solo.Predict(traffic.Default); got != model.Solo.Predict(traffic.Default) {
		t.Fatalf("solo prediction changed: %v", got)
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	if _, err := LoadModel(strings.NewReader("not json")); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := LoadModel(strings.NewReader(`{"Name":"x"}`)); err == nil {
		t.Fatal("expected missing-submodel error")
	}

	// A model whose solo regressor holds one tree: a walkable leaf loads;
	// trees that would hang or crash Predict do not.
	model := func(tree string) string {
		gbr := func(tree string) string { return `{"gbr":{"bias":1,"rate":0.1,"trees":[` + tree + `]}}` }
		return `{"Name":"x","Solo":` + gbr(tree) + `,"Mem":` + gbr(`[{"f":0,"t":0,"l":-1,"r":-1,"v":0}]`) + `}`
	}
	if _, err := LoadModel(strings.NewReader(model(`[{"f":0,"t":0,"l":-1,"r":-1,"v":2}]`))); err != nil {
		t.Fatalf("a one-leaf model did not load: %v", err)
	}
	for name, tree := range map[string]string{
		"self loop":        `[{"f":0,"t":1,"l":0,"r":0,"v":0}]`,
		"negative feature": `[{"f":-1,"t":1,"l":1,"r":2,"v":0},{"f":0,"t":0,"l":-1,"r":-1,"v":1},{"f":0,"t":0,"l":-1,"r":-1,"v":2}]`,
		"negative right":   `[{"f":0,"t":1,"l":1,"r":-2,"v":0},{"f":0,"t":0,"l":-1,"r":-1,"v":1}]`,
	} {
		if _, err := LoadModel(strings.NewReader(model(tree))); err == nil {
			t.Errorf("a model with a %s tree loaded", name)
		}
	}
}
