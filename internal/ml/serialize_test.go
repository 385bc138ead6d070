package ml

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// walk follows Predict's path through t at x, counting the nodes it
// visits; it gives up past len(nodes) visits, where Predict would loop.
func walk(t *Tree, x []float64) (value float64, steps int) {
	n := int32(0)
	for steps = 1; steps <= len(t.nodes); steps++ {
		node := &t.nodes[n]
		if node.Left < 0 {
			return node.Value, steps
		}
		if node.Feature < len(x) && x[node.Feature] <= node.Threshold {
			n = node.Left
		} else {
			n = node.Right
		}
	}
	return math.NaN(), steps
}

// sameNodes compares two trees node for node, floats bit for bit.
func sameNodes(a, b *Tree) bool {
	if len(a.nodes) != len(b.nodes) {
		return false
	}
	for i, x := range a.nodes {
		y := b.nodes[i]
		if x.Feature != y.Feature || x.Left != y.Left || x.Right != y.Right ||
			math.Float64bits(x.Threshold) != math.Float64bits(y.Threshold) ||
			math.Float64bits(x.Value) != math.Float64bits(y.Value) {
			return false
		}
	}
	return true
}

// decodeTree reaches the tree validator the way a model file does: data
// is one tree's node array, built into a GBR through its persisted form.
func decodeTree(data []byte) (*Tree, error) {
	var nodes []Node
	if err := json.Unmarshal(data, &nodes); err != nil {
		return nil, err
	}
	g, err := NewGBR(GBRForm{Rate: 1, Trees: [][]Node{nodes}})
	if err != nil {
		return nil, err
	}
	return g.trees[0], nil
}

// FuzzTreeJSON holds the tree decoder to what model files reach it with:
// arbitrary bytes never panic it, a tree it accepts walks to a leaf
// within len(nodes) steps on any input (Predict's loop has no other
// bound), and marshal∘unmarshal gives back the same nodes and bytes.
func FuzzTreeJSON(f *testing.F) {
	fitted, err := json.Marshal(FitTree([][]float64{{0, 1}, {1, 0}, {2, 1}, {3, 0}}, []float64{1, 2, 3, 4}, TreeConfig{MaxDepth: 2, MinLeaf: 1}).nodes)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fitted)
	f.Add([]byte(`[{"f":0,"t":0,"l":-1,"r":-1,"v":-0}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tree, err := decodeTree(data)
		if err != nil {
			return
		}
		lo, hi := make([]float64, 64), make([]float64, 64)
		for i := range lo {
			lo[i], hi[i] = math.Inf(-1), math.Inf(1)
		}
		for k, x := range [][]float64{nil, lo, hi} {
			v, steps := walk(tree, x)
			if steps > len(tree.nodes) {
				t.Fatalf("accepted %s: no leaf within %d steps on probe %d", data, len(tree.nodes), k)
			}
			if got := tree.Predict(x); math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("accepted %s: Predict = %v, walk = %v on probe %d", data, got, v, k)
			}
		}
		out, err := json.Marshal(tree.nodes)
		if err != nil {
			t.Fatalf("accepted %s: marshal: %v", data, err)
		}
		back, err := decodeTree(out)
		if err != nil {
			t.Fatalf("accepted %s, then rejected its own marshalling %s: %v", data, out, err)
		}
		if !sameNodes(tree, back) {
			t.Fatalf("accepted %s: round trip through %s changed the nodes", data, out)
		}
		if again, _ := json.Marshal(back.nodes); !bytes.Equal(again, out) {
			t.Fatalf("accepted %s: marshalled %s, then %s", data, out, again)
		}
	})
}

// TestTreeJSONRejectsUnwalkable lists the shapes the decoder refuses:
// each would hang Predict or index outside the node or feature array.
func TestTreeJSONRejectsUnwalkable(t *testing.T) {
	for name, data := range map[string]string{
		"self loop":           `[{"f":0,"t":1,"l":0,"r":0,"v":0}]`,
		"back edge":           `[{"f":0,"t":1,"l":1,"r":2,"v":0},{"f":0,"t":1,"l":0,"r":2,"v":0},{"f":0,"t":0,"l":-1,"r":-1,"v":1}]`,
		"negative feature":    `[{"f":-1,"t":1,"l":1,"r":2,"v":0},{"f":0,"t":0,"l":-1,"r":-1,"v":1},{"f":0,"t":0,"l":-1,"r":-1,"v":2}]`,
		"negative right":      `[{"f":0,"t":1,"l":1,"r":-2,"v":0},{"f":0,"t":0,"l":-1,"r":-1,"v":1}]`,
		"right past the end":  `[{"f":0,"t":1,"l":1,"r":2,"v":0},{"f":0,"t":0,"l":-1,"r":-1,"v":1}]`,
		"leaf with a right":   `[{"f":0,"t":1,"l":-1,"r":0,"v":0}]`,
		"leaf marked -2":      `[{"f":0,"t":1,"l":-2,"r":-2,"v":0}]`,
		"no nodes":            `[]`,
		"not an array":        `{"f":0}`,
		"null":                `null`,
		"children equal self": `[{"f":0,"t":1,"l":1,"r":1,"v":0},{"f":0,"t":1,"l":1,"r":1,"v":0}]`,
	} {
		if _, err := decodeTree([]byte(data)); err == nil {
			t.Errorf("%s: %s decoded", name, data)
		}
	}
}
