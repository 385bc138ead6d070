package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// DefaultCriticalPackages are the replay-determinism-critical packages:
// everything a recorded trace's bit-identical replay flows through, plus
// the testbed, whose runs are seeded by call order, and the experiments
// that drive it. A map iteration or wall-clock read here can silently
// change scheduling outcomes or reported numbers between two runs of
// the same scenario.
var DefaultCriticalPackages = []string{
	"internal/sim",
	"internal/placement",
	"internal/trace",
	"internal/cluster",
	"internal/wire",
	"internal/testbed",
	"internal/experiments",
}

// detmapPackages are where detmap looks: the critical packages plus the
// commands that print the product's reports, whose line order must not
// change between two runs of the same command. Wallclock keeps the
// critical list alone, because a command legitimately reads the clock.
var detmapPackages = append(slices.Clip(DefaultCriticalPackages), "cmd/yala", "cmd/experiments")

// keyCollectionOnly recognizes the one blessed map-range shape: a loop
// whose body does nothing but append the key to a slice —
//
//	for k := range m { keys = append(keys, k) }
//
// the first half of the iterate-sorted-keys idiom. Its iteration order
// cannot be observed, so flagging it would force an ignore onto the
// exact pattern the analyzer exists to encourage.
func keyCollectionOnly(rs *ast.RangeStmt) bool {
	if rs.Value != nil || rs.Body == nil || len(rs.Body.List) != 1 {
		return false
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && arg.Name == key.Name
}

// inPackages reports whether the pass's package path, stripped of the
// module prefix, is one of rels or nested under one.
func inPackages(pass *Pass, rels []string) bool {
	path := pass.Pkg.Path
	if rest, ok := strings.CutPrefix(path, pass.Loader.ModPath+"/"); ok {
		path = rest
	}
	for _, r := range rels {
		if path == r || strings.HasPrefix(path, r+"/") {
			return true
		}
	}
	return false
}

// Detmap flags `range` over a map in determinism-critical packages and
// report-printing commands (detmapPackages when critical is nil). Map
// iteration order is randomized per run; deterministic code must
// collect the keys, sort them, and range over the slice. Provably
// order-independent loops (pure counting, commutative folds reviewed by
// a human) carry a //yalalint:ignore detmap annotation instead.
func Detmap(critical ...string) *Analyzer {
	if critical == nil {
		critical = detmapPackages
	}
	return &Analyzer{
		Name: "detmap",
		Doc:  "forbids range over a map in determinism-critical packages; iterate sorted keys instead",
		Run: func(pass *Pass) {
			if !inPackages(pass, critical) {
				return
			}
			for _, f := range pass.Pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					t := pass.TypeOf(rs.X)
					if t == nil {
						return true
					}
					if m, ok := t.Underlying().(*types.Map); ok && !keyCollectionOnly(rs) {
						pass.Reportf(rs.For, "range over %s iterates in nondeterministic order; range over sorted keys instead",
							types.TypeString(m, types.RelativeTo(pass.Pkg.Types)))
					}
					return true
				})
			}
		},
	}
}
