package ml

import "sort"

// TreeConfig bounds CART regression-tree growth.
type TreeConfig struct {
	MaxDepth int
	MinLeaf  int // minimum samples per leaf
}

// Node is one node of a regression tree, stored in a flat slice; the
// slice is also the tree's persisted form (GBRForm). Leaves have
// Left == -1.
type Node struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t"`
	Left      int32   `json:"l"`
	Right     int32   `json:"r"`
	Value     float64 `json:"v"` // leaf prediction
}

// Tree is a fitted CART regression tree.
type Tree struct {
	nodes []Node
}

// FitTree grows a regression tree on (X, y) minimizing the sum of squared
// errors at each split.
func FitTree(X [][]float64, y []float64, cfg TreeConfig) *Tree {
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	if cfg.MaxDepth < 1 {
		cfg.MaxDepth = 1
	}
	idx := make([]int, len(y))
	for i := range idx {
		idx[i] = i
	}
	t := &Tree{}
	t.grow(X, y, idx, cfg, 0)
	return t
}

// grow builds the subtree over idx and returns its node index.
func (t *Tree) grow(X [][]float64, y []float64, idx []int, cfg TreeConfig, depth int) int32 {
	node := Node{Left: -1, Right: -1, Value: meanAt(y, idx)}
	self := int32(len(t.nodes))
	t.nodes = append(t.nodes, node)

	if depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeaf {
		return self
	}
	feat, thr, gain := bestSplit(X, y, idx, cfg.MinLeaf)
	if gain <= 0 {
		return self
	}
	var left, right []int
	for _, i := range idx {
		if X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < cfg.MinLeaf || len(right) < cfg.MinLeaf {
		return self
	}
	l := t.grow(X, y, left, cfg, depth+1)
	r := t.grow(X, y, right, cfg, depth+1)
	t.nodes[self].Feature = feat
	t.nodes[self].Threshold = thr
	t.nodes[self].Left = l
	t.nodes[self].Right = r
	return self
}

// bestSplit scans every feature for the threshold with the largest SSE
// reduction, honouring the min-leaf constraint.
func bestSplit(X [][]float64, y []float64, idx []int, minLeaf int) (feat int, thr, gain float64) {
	n := len(idx)
	if n < 2 {
		return 0, 0, 0
	}
	dims := len(X[idx[0]])
	var totalSum, totalSq float64
	for _, i := range idx {
		totalSum += y[i]
		totalSq += y[i] * y[i]
	}
	parentSSE := totalSq - totalSum*totalSum/float64(n)

	order := make([]int, n)
	bestGain := 0.0
	for f := 0; f < dims; f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return X[order[a]][f] < X[order[b]][f] })
		var leftSum, leftSq float64
		for pos := 0; pos < n-1; pos++ {
			i := order[pos]
			leftSum += y[i]
			leftSq += y[i] * y[i]
			// Can't split between equal feature values.
			if X[order[pos]][f] == X[order[pos+1]][f] {
				continue
			}
			nl, nr := pos+1, n-pos-1
			if nl < minLeaf || nr < minLeaf {
				continue
			}
			rightSum := totalSum - leftSum
			rightSq := totalSq - leftSq
			sse := (leftSq - leftSum*leftSum/float64(nl)) +
				(rightSq - rightSum*rightSum/float64(nr))
			if g := parentSSE - sse; g > bestGain {
				bestGain = g
				feat = f
				thr = (X[order[pos]][f] + X[order[pos+1]][f]) / 2
			}
		}
	}
	return feat, thr, bestGain
}

func meanAt(y []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	var sum float64
	for _, i := range idx {
		sum += y[i]
	}
	return sum / float64(len(idx))
}

// Predict evaluates the tree at x.
func (t *Tree) Predict(x []float64) float64 {
	n := int32(0)
	for {
		node := &t.nodes[n]
		if node.Left < 0 {
			return node.Value
		}
		if node.Feature < len(x) && x[node.Feature] <= node.Threshold {
			n = node.Left
		} else {
			n = node.Right
		}
	}
}

// Depth reports the tree's depth (a single leaf is depth 0).
func (t *Tree) Depth() int { return t.depthFrom(0) }

func (t *Tree) depthFrom(n int32) int {
	node := &t.nodes[n]
	if node.Left < 0 {
		return 0
	}
	l := t.depthFrom(node.Left)
	r := t.depthFrom(node.Right)
	if l > r {
		return l + 1
	}
	return r + 1
}
