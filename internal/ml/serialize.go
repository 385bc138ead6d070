package ml

import "fmt"

// GBRForm is the persisted form of a GBR: plain data that a model file
// holds and encoding/json reads and writes in one pass. Each tree is its
// flat node array. NewGBR is the only way from a form to a GBR.
type GBRForm struct {
	Bias  float64  `json:"bias"`
	Rate  float64  `json:"rate"`
	Trees [][]Node `json:"trees"`
}

// Form returns g's persisted form. It shares g's node arrays, which the
// caller must not modify.
func (g *GBR) Form() GBRForm {
	trees := make([][]Node, len(g.trees))
	for i, t := range g.trees {
		trees[i] = t.nodes
	}
	return GBRForm{Bias: g.bias, Rate: g.rate, Trees: trees}
}

// NewGBR builds the GBR f describes and keeps f's node arrays. It accepts
// a positive learning rate and only trees Predict can walk: a leaf has
// both children -1; an internal node has a non-negative feature and both
// children after itself and inside the array, so every walk moves
// forward and ends within len(nodes) steps.
func NewGBR(f GBRForm) (*GBR, error) {
	if !(f.Rate > 0) {
		return nil, fmt.Errorf("ml: GBR with non-positive learning rate")
	}
	trees := make([]*Tree, len(f.Trees))
	for i, nodes := range f.Trees {
		if err := walkable(nodes); err != nil {
			return nil, fmt.Errorf("ml: GBR tree %d: %w", i, err)
		}
		trees[i] = &Tree{nodes: nodes}
	}
	return &GBR{bias: f.Bias, rate: f.Rate, trees: trees}, nil
}

// walkable reports why Predict could not walk nodes, or nil.
func walkable(nodes []Node) error {
	if len(nodes) == 0 {
		return fmt.Errorf("tree with no nodes")
	}
	end := int32(len(nodes))
	for i, n := range nodes {
		self := int32(i)
		switch {
		case n.Left < 0 && (n.Left != -1 || n.Right != -1):
			return fmt.Errorf("leaf %d has children (%d, %d), want (-1, -1)", i, n.Left, n.Right)
		case n.Left >= 0 && (n.Left <= self || n.Right <= self || n.Left >= end || n.Right >= end):
			return fmt.Errorf("node %d has children (%d, %d) outside (%d, %d)", i, n.Left, n.Right, i, end)
		case n.Left >= 0 && n.Feature < 0:
			return fmt.Errorf("node %d splits on feature %d", i, n.Feature)
		}
	}
	return nil
}
