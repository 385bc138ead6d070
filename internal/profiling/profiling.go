// Package profiling implements Yala's offline data-collection strategies
// (§5.2): full profiling over an attribute grid, random sampling, and the
// paper's Algorithm 1 — adaptive profiling, which prunes traffic
// attributes the NF is insensitive to and concentrates samples in the
// attribute ranges where solo performance changes the most.
package profiling

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

// Spec is one sample to collect: a traffic profile for the target NF and
// a synthetic memory-contention level to apply while measuring.
type Spec struct {
	Profile    traffic.Profile
	Contention testbed.MemContention
}

// SoloObs is a solo-throughput observation made while planning; trainers
// reuse these for the solo model rather than re-measuring.
type SoloObs struct {
	Profile    traffic.Profile
	Throughput float64
}

// Plan is the outcome of a profiling strategy.
type Plan struct {
	// Attributes are the traffic attributes kept after pruning (all of
	// them for full/random plans).
	Attributes []traffic.Attribute
	// Samples are the contended measurements to collect.
	Samples []Spec
	// SoloObs are the solo measurements taken during planning.
	SoloObs []SoloObs
}

// Config tunes adaptive profiling (Algorithm 1's hyperparameters).
type Config struct {
	// Quota bounds the number of contended samples (q).
	Quota int
	// PruneFrac (ε₀) prunes an attribute when the solo-throughput swing
	// across its range is below this fraction of the default-profile
	// solo throughput.
	PruneFrac float64
	// RangeFrac (ε₁) recurses into a range only when the solo swing
	// across it exceeds this fraction.
	RangeFrac float64
	// PerMidpoint (m) is the number of random-contention samples taken
	// at each recursion midpoint.
	PerMidpoint int
	// Seed drives contention-level randomization.
	Seed uint64
}

// DefaultConfig mirrors the paper's regime: a modest quota with targeted
// bisection.
func DefaultConfig(quota int) Config {
	return Config{Quota: quota, PruneFrac: 0.05, RangeFrac: 0.03, PerMidpoint: 12, Seed: 1}
}

// SoloFunc measures the target NF's solo throughput at a profile.
type SoloFunc func(traffic.Profile) (float64, error)

// randomContention draws a mem-bench level uniformly from the standard
// bounds.
func randomContention(rng *sim.RNG) testbed.MemContention {
	b := testbed.MemContentionBounds
	return testbed.MemContention{
		CAR: rng.Range(b.CARLo, b.CARHi),
		WSS: rng.Range(b.WSSLo, b.WSSHi),
	}
}

// contentionSequence yields k contention levels: the first draws walk a
// stratified 3×3 grid over (CAR, WSS) so every profile sees the corners
// of the contention space, and the rest are uniform. Purely random draws
// underweight the high-CAR/high-WSS corner where sensitivity is steepest.
func contentionSequence(rng *sim.RNG, k int) []testbed.MemContention {
	b := testbed.MemContentionBounds
	var grid []testbed.MemContention
	for _, fc := range []float64{0.1, 0.5, 0.95} {
		for _, fw := range []float64{0.1, 0.5, 0.95} {
			grid = append(grid, testbed.MemContention{
				CAR: b.CARLo + (b.CARHi-b.CARLo)*fc,
				WSS: b.WSSLo + (b.WSSHi-b.WSSLo)*fw,
			})
		}
	}
	rng.Shuffle(len(grid), func(i, j int) { grid[i], grid[j] = grid[j], grid[i] })
	out := make([]testbed.MemContention, 0, k)
	for i := 0; i < k; i++ {
		if i < len(grid) {
			out = append(out, grid[i])
		} else {
			out = append(out, randomContention(rng))
		}
	}
	return out
}

// Random returns a plan of quota samples at uniformly random profiles and
// contention levels — the paper's random-profiling baseline.
func Random(quota int, seed uint64) *Plan {
	rng := sim.NewRNG(seed)
	p := &Plan{Attributes: allAttributes()}
	for i := 0; i < quota; i++ {
		p.Samples = append(p.Samples, Spec{
			Profile:    traffic.Random(rng),
			Contention: randomContention(rng),
		})
	}
	return p
}

// Full returns a plan covering an attribute grid with perProfile random
// contention levels each — the paper's 3200× full-profiling reference.
func Full(grid []traffic.Profile, perProfile int, seed uint64) *Plan {
	rng := sim.NewRNG(seed)
	p := &Plan{Attributes: allAttributes()}
	for _, prof := range grid {
		for i := 0; i < perProfile; i++ {
			p.Samples = append(p.Samples, Spec{
				Profile:    prof,
				Contention: randomContention(rng),
			})
		}
	}
	return p
}

func allAttributes() []traffic.Attribute {
	attrs := make([]traffic.Attribute, 0, traffic.NumAttributes)
	for a := traffic.Attribute(0); a < traffic.NumAttributes; a++ {
		attrs = append(attrs, a)
	}
	return attrs
}

// Adaptive runs Algorithm 1: prune insensitive attributes using solo
// throughput at the attribute extremes, then recursively bisect the kept
// attribute region, collecting PerMidpoint random-contention samples at
// each midpoint whose enclosing range still shows a solo-throughput
// swing above ε₁.
func Adaptive(solo SoloFunc, cfg Config) (*Plan, error) {
	if cfg.Quota <= 0 {
		return nil, fmt.Errorf("profiling: non-positive quota %d", cfg.Quota)
	}
	if cfg.PerMidpoint <= 0 {
		cfg.PerMidpoint = 1
	}
	rng := sim.NewRNG(cfg.Seed)
	plan := &Plan{}

	cache := map[traffic.Profile]float64{}
	soloAt := func(p traffic.Profile) (float64, error) {
		if v, ok := cache[p]; ok {
			return v, nil
		}
		v, err := solo(p)
		if err != nil {
			return 0, err
		}
		cache[p] = v
		plan.SoloObs = append(plan.SoloObs, SoloObs{Profile: p, Throughput: v})
		return v, nil
	}

	ref, err := soloAt(traffic.Default)
	if err != nil {
		return nil, err
	}
	if ref <= 0 {
		return nil, fmt.Errorf("profiling: zero solo throughput at default profile")
	}

	// Phase 1: attribute pruning (Algorithm 1 lines 7–11).
	for a := traffic.Attribute(0); a < traffic.NumAttributes; a++ {
		lo, hi := a.Bounds()
		tMin, err := soloAt(traffic.Default.With(a, lo))
		if err != nil {
			return nil, err
		}
		tMax, err := soloAt(traffic.Default.With(a, hi))
		if err != nil {
			return nil, err
		}
		if math.Abs(tMax-tMin) >= cfg.PruneFrac*ref {
			plan.Attributes = append(plan.Attributes, a)
		}
	}

	if len(plan.Attributes) == 0 {
		// Nothing traffic-sensitive: spend the quota at the default
		// profile across random contention levels.
		for len(plan.Samples) < cfg.Quota {
			plan.Samples = append(plan.Samples, Spec{
				Profile:    traffic.Default,
				Contention: randomContention(rng),
			})
		}
		return plan, nil
	}

	// Phase 2: recursive range bisection (Algorithm 1 lines 14–26).
	// Each kept attribute is bisected on its own axis (others at their
	// defaults) so the default-anchored slices the NF actually operates
	// in are densely covered; a final joint bisection sweeps the
	// diagonal for cross-attribute interactions.
	axes := len(plan.Attributes) + 1
	perAxis := cfg.Quota / axes
	for _, a := range plan.Attributes {
		l, h := a.Bounds()
		axisCfg := cfg
		axisCfg.Quota = len(plan.Samples) + perAxis
		if err := bisect(plan, soloAt, traffic.Default.With(a, l), traffic.Default.With(a, h),
			[]traffic.Attribute{a}, axisCfg, rng, ref); err != nil {
			return nil, err
		}
	}
	lo := traffic.Default
	hi := traffic.Default
	for _, a := range plan.Attributes {
		l, h := a.Bounds()
		lo = lo.With(a, l)
		hi = hi.With(a, h)
	}
	if err := bisect(plan, soloAt, lo, hi, plan.Attributes, cfg, rng, ref); err != nil {
		return nil, err
	}
	// If bisection converged before exhausting the quota, spread the rest
	// over a bounded pool of extra profiles in the kept region. A pool —
	// rather than a fresh profile per draw — keeps the number of distinct
	// profiles (each needing its own footprint profiling) proportional to
	// the bisection, not the quota.
	const spreadPool = 16
	var pool []traffic.Profile
	for i := 0; i < spreadPool; i++ {
		p := traffic.Default
		for _, a := range plan.Attributes {
			l, h := a.Bounds()
			p = p.With(a, rng.Range(l, h))
		}
		pool = append(pool, p)
	}
	for i := 0; len(plan.Samples) < cfg.Quota; i++ {
		plan.Samples = append(plan.Samples, Spec{
			Profile:    pool[i%len(pool)],
			Contention: randomContention(rng),
		})
	}
	return plan, nil
}

// maxBisectDepth bounds bisection depth independent of the quota.
const maxBisectDepth = 12

// bisect performs the range_profile recursion of Algorithm 1 breadth-
// first: every range at depth d is sampled before any range at depth d+1,
// so a tight quota still spreads over the whole sensitive region rather
// than one flank of it.
func bisect(plan *Plan, solo SoloFunc, lo, hi traffic.Profile, attrs []traffic.Attribute, cfg Config, rng *sim.RNG, ref float64) error {
	type span struct{ lo, hi traffic.Profile }
	// Anchor the region endpoints with contended samples first: the
	// bisection below only refines interior midpoints, and the extremes
	// (e.g. very low flow counts) can behave differently under contention
	// even where solo throughput is flat.
	for _, p := range []traffic.Profile{lo, hi} {
		for _, c := range contentionSequence(rng, cfg.PerMidpoint) {
			if len(plan.Samples) >= cfg.Quota {
				return nil
			}
			plan.Samples = append(plan.Samples, Spec{Profile: p, Contention: c})
		}
	}
	frontier := []span{{lo, hi}}
	for depth := 0; depth <= maxBisectDepth && len(frontier) > 0; depth++ {
		var next []span
		for _, s := range frontier {
			if len(plan.Samples) >= cfg.Quota {
				return nil
			}
			tMin, err := solo(s.lo)
			if err != nil {
				return err
			}
			tMax, err := solo(s.hi)
			if err != nil {
				return err
			}
			if math.Abs(tMax-tMin) < cfg.RangeFrac*ref {
				continue
			}
			mid := s.lo
			for _, a := range attrs {
				mid = mid.With(a, (s.lo.Get(a)+s.hi.Get(a))/2)
			}
			for _, c := range contentionSequence(rng, cfg.PerMidpoint) {
				if len(plan.Samples) >= cfg.Quota {
					break
				}
				plan.Samples = append(plan.Samples, Spec{Profile: mid, Contention: c})
			}
			next = append(next, span{s.lo, mid}, span{mid, s.hi})
		}
		frontier = next
	}
	return nil
}
