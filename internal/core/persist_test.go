package core

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/ml"
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
	loaded, err := decodeModel(buf.Bytes())
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
	if _, err := decodeModel([]byte("not json")); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := decodeModel([]byte(`{"Name":"x"}`)); err == nil {
		t.Fatal("expected missing-submodel error")
	}

	// A model whose solo regressor holds one tree: a walkable leaf loads;
	// trees that would hang or crash Predict do not.
	model := func(tree string) string {
		gbr := func(tree string) string { return `{"gbr":{"bias":1,"rate":0.1,"trees":[` + tree + `]}}` }
		return `{"Name":"x","Solo":` + gbr(tree) + `,"Mem":` + gbr(`[{"f":0,"t":0,"l":-1,"r":-1,"v":0}]`) + `}`
	}
	if _, err := decodeModel([]byte(model(`[{"f":0,"t":0,"l":-1,"r":-1,"v":2}]`))); err != nil {
		t.Fatalf("a one-leaf model did not load: %v", err)
	}
	for name, tree := range map[string]string{
		"null":             `null`,
		"self loop":        `[{"f":0,"t":1,"l":0,"r":0,"v":0}]`,
		"negative feature": `[{"f":-1,"t":1,"l":1,"r":2,"v":0},{"f":0,"t":0,"l":-1,"r":-1,"v":1},{"f":0,"t":0,"l":-1,"r":-1,"v":2}]`,
		"negative right":   `[{"f":0,"t":1,"l":1,"r":-2,"v":0},{"f":0,"t":0,"l":-1,"r":-1,"v":1}]`,
	} {
		if _, err := decodeModel([]byte(model(tree))); err == nil {
			t.Errorf("a model with a %s tree loaded", name)
		}
	}

	// Predict reads every accelerator model it holds; a null one would
	// be a nil dereference there.
	leaf := model(`[{"f":0,"t":0,"l":-1,"r":-1,"v":2}]`)
	if _, err := decodeModel([]byte(leaf[:len(leaf)-1] + `,"Accels":{"0":null}}`)); err == nil {
		t.Error("a model with a null accelerator model loaded")
	}
}

// sameGBRBits reports whether two regressor forms hold the same bias,
// rate and tree nodes, floats compared bit for bit.
func sameGBRBits(a, b ml.GBRForm) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.Bias, b.Bias) || !same(a.Rate, b.Rate) || len(a.Trees) != len(b.Trees) {
		return false
	}
	for i, nodes := range a.Trees {
		if len(nodes) != len(b.Trees[i]) {
			return false
		}
		for j, x := range nodes {
			y := b.Trees[i][j]
			if x.Feature != y.Feature || x.Left != y.Left || x.Right != y.Right ||
				!same(x.Threshold, y.Threshold) || !same(x.Value, y.Value) {
				return false
			}
		}
	}
	return true
}

// TestLoadIndentedArtifact holds Save's compact layout to the indented
// one it replaced: a file re-indented the way Save once wrote it loads
// to the same model, bit for bit.
func TestLoadIndentedArtifact(t *testing.T) {
	tb := testbed.New(nicsim.BlueField2(), 73)
	cfg := DefaultTrainConfig()
	cfg.Plan = profiling.Random(40, 5)
	model, err := NewTrainer(tb, cfg).Train("NIDS")
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
	if a.Name != b.Name || a.Pattern != b.Pattern || a.Mem.trafficAware != b.Mem.trafficAware {
		t.Fatalf("metadata differs: %s/%v/%v vs %s/%v/%v", a.Name, a.Pattern, a.Mem.trafficAware, b.Name, b.Pattern, b.Mem.trafficAware)
	}
	if !sameGBRBits(a.Solo.gbr.Form(), b.Solo.gbr.Form()) || !sameGBRBits(a.Mem.gbr.Form(), b.Mem.gbr.Form()) {
		t.Fatal("a regressor differs between the compact and the indented file")
	}
	if len(a.Accels) == 0 || len(a.Accels) != len(b.Accels) {
		t.Fatalf("accelerator models: %d compact, %d indented", len(a.Accels), len(b.Accels))
	}
	for kind, x := range a.Accels {
		y := b.Accels[kind]
		if y == nil || x.Attr != y.Attr {
			t.Fatalf("%v accelerator model differs: %+v vs %+v", kind, x, y)
		}
		for _, f := range [][2]float64{{x.Queues, y.Queues}, {x.T0, y.T0}, {x.A, y.A}, {x.ReqsPerPkt, y.ReqsPerPkt}} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				t.Fatalf("%v accelerator model differs: %+v vs %+v", kind, x, y)
			}
		}
	}
}

// FuzzModelJSON holds the model decoder to what a model directory (and
// :reload) can hand it: arbitrary bytes never panic it, a model it
// accepts predicts without panicking, regex competitor included, and
// Save∘Load gives back the same bytes.
func FuzzModelJSON(f *testing.F) {
	leaf := `{"bias":1,"rate":0.1,"trees":[[{"f":0,"t":0,"l":-1,"r":-1,"v":2}]]}`
	split := `{"bias":0.5,"rate":0.1,"trees":[[{"f":2,"t":700,"l":1,"r":2,"v":0},{"f":0,"t":0,"l":-1,"r":-1,"v":0.9},{"f":0,"t":0,"l":-1,"r":-1,"v":-0.3}]]}`
	accels := `{"0":{"Queues":2,"T0":8e-7,"A":1e-10,"Attr":2,"ReqsPerPkt":1},"1":{"Queues":1,"T0":1e-6,"A":0,"Attr":1,"ReqsPerPkt":0.5}}`
	full := `{"Name":"NIDS","Pattern":1,"Solo":{"gbr":` + split + `},"Mem":{"gbr":` + leaf + `,"traffic_aware":true},"Accels":` + accels + `}`
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(full), "", " "); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(full))
	f.Add(indented.Bytes())
	f.Add([]byte(`{"Name":"x","Solo":{"gbr":` + leaf + `},"Mem":{"gbr":` + leaf + `}}`))
	regex := Competitor{
		Counters: nicsim.Counters{L2CRD: 70e6, L2CWR: 30e6, MEMRD: 25e6, MEMWR: 10e6, WSS: 8 << 20},
		Accel: map[nicsim.AccelKind]AccelLoad{
			nicsim.AccelRegex: {Queues: 1, ServiceSec: 900e-9, OfferedReq: 0.4e6},
		},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeModel(data)
		if err != nil {
			return
		}
		for _, prof := range []traffic.Profile{{}, traffic.Default} {
			for _, comps := range [][]Competitor{nil, {regex}, {regex, {}}} {
				m.Predict(prof, comps)
			}
		}
		var out, again bytes.Buffer
		if err := m.Save(&out); err != nil {
			t.Fatalf("accepted %s: save: %v", data, err)
		}
		back, err := decodeModel(out.Bytes())
		if err != nil {
			t.Fatalf("accepted %s, then rejected its own save %s: %v", data, out.Bytes(), err)
		}
		if err := back.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), out.Bytes()) {
			t.Fatalf("accepted %s: saved %s, then %s", data, out.Bytes(), again.Bytes())
		}
	})
}
