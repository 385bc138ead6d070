// Package sim provides a small deterministic discrete-event simulation
// kernel used by the SmartNIC model: an event queue ordered by simulated
// time, a clock, and seeded random-number streams.
//
// Everything in this package is deterministic given a seed, which keeps
// experiment outputs and tests reproducible. The random streams are also
// seekable: RNG.Skip jumps over draws and RNG.At opens a second cursor
// on the same stream, both in O(1).
package sim

import "math"

// RNG is a deterministic pseudo-random number generator based on
// splitmix64. It is intentionally independent of math/rand so that stream
// behaviour is stable across Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the same
// seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives a new independent stream from the current one. It is useful
// for giving each simulated component its own stream so that adding a
// component does not perturb the draws seen by others.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// gamma is splitmix64's state increment: the state is a counter, draw k
// of a stream seeded with s is a fixed scramble of s + k·gamma, so any
// position of the stream is reachable in O(1).
const gamma = 0x9e3779b97f4a7c15

// Skip advances the stream past its next n draws without making them:
// r.Skip(n) leaves r exactly where n calls of Uint64 (or of anything
// built on one Uint64 per call: Intn, Float64, Range) would.
func (r *RNG) Skip(n uint64) { r.state += n * gamma }

// At returns a copy of the stream positioned n draws ahead of r. Drawing
// from the copy leaves r untouched, so a consumer that remembers where a
// run of draws began can replay any part of it later instead of storing
// what it drew.
func (r *RNG) At(n uint64) RNG { return RNG{state: r.state + n*gamma} }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a normally distributed value with the given mean and
// standard deviation, using the Box-Muller transform.
func (r *RNG) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Jitter returns x perturbed by a multiplicative factor drawn from
// N(1, rel). The result is clamped to be non-negative.
func (r *RNG) Jitter(x, rel float64) float64 {
	v := x * r.Norm(1, rel)
	if v < 0 {
		return 0
	}
	return v
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly reorders the first n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
