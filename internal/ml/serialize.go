package ml

import (
	"encoding/json"
	"fmt"
)

// treeNodeJSON mirrors treeNode for serialization.
type treeNodeJSON struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t"`
	Left      int32   `json:"l"`
	Right     int32   `json:"r"`
	Value     float64 `json:"v"`
}

// MarshalJSON implements json.Marshaler: a tree serializes as its flat
// node array.
func (t *Tree) MarshalJSON() ([]byte, error) {
	nodes := make([]treeNodeJSON, len(t.nodes))
	for i, n := range t.nodes {
		nodes[i] = treeNodeJSON{n.feature, n.threshold, n.left, n.right, n.value}
	}
	return json.Marshal(nodes)
}

// UnmarshalJSON implements json.Unmarshaler. It accepts only trees
// Predict can walk: a leaf has both children -1; an internal node has a
// non-negative feature and both children after itself and inside the
// array, so every walk moves forward and ends within len(nodes) steps.
func (t *Tree) UnmarshalJSON(data []byte) error {
	var nodes []treeNodeJSON
	if err := json.Unmarshal(data, &nodes); err != nil {
		return err
	}
	if len(nodes) == 0 {
		return fmt.Errorf("ml: tree with no nodes")
	}
	t.nodes = make([]treeNode, len(nodes))
	for i, n := range nodes {
		self, end := int32(i), int32(len(nodes))
		switch {
		case n.Left < 0 && (n.Left != -1 || n.Right != -1):
			return fmt.Errorf("ml: tree leaf %d has children (%d, %d), want (-1, -1)", i, n.Left, n.Right)
		case n.Left >= 0 && (n.Left <= self || n.Right <= self || n.Left >= end || n.Right >= end):
			return fmt.Errorf("ml: tree node %d has children (%d, %d) outside (%d, %d)", i, n.Left, n.Right, i, len(nodes))
		case n.Left >= 0 && n.Feature < 0:
			return fmt.Errorf("ml: tree node %d splits on feature %d", i, n.Feature)
		}
		t.nodes[i] = treeNode{n.Feature, n.Threshold, n.Left, n.Right, n.Value}
	}
	return nil
}

// gbrJSON mirrors GBR for serialization.
type gbrJSON struct {
	Bias  float64 `json:"bias"`
	Rate  float64 `json:"rate"`
	Trees []*Tree `json:"trees"`
}

// MarshalJSON implements json.Marshaler.
func (g *GBR) MarshalJSON() ([]byte, error) {
	return json.Marshal(gbrJSON{g.bias, g.rate, g.trees})
}

// UnmarshalJSON implements json.Unmarshaler.
func (g *GBR) UnmarshalJSON(data []byte) error {
	var v gbrJSON
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	if v.Rate <= 0 {
		return fmt.Errorf("ml: GBR with non-positive learning rate")
	}
	g.bias, g.rate, g.trees = v.Bias, v.Rate, v.Trees
	return nil
}
