package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// LatencyBuckets is the default upper-bound set for request and stage
// latency histograms, in seconds: 50µs to 10s, roughly log-spaced. The
// low end matters here — warm predicts sit in the tens of microseconds,
// so a stock 5ms-floor bucket layout would flatten the whole signal
// into one bucket.
var LatencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram safe for concurrent Observe.
// Bucket counts are per-bucket (non-cumulative) atomics; the sum is a
// CAS loop over the float bits. Under concurrency a snapshot's
// sum/count/buckets can be mutually off by in-flight observations —
// the usual Prometheus contract.
type Histogram struct {
	uppers  []float64 // ascending finite upper bounds; +Inf is implicit
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// NewHistogram builds a histogram with the given ascending finite
// bucket upper bounds; nil or empty selects LatencyBuckets. A trailing
// +Inf bound is dropped — the overflow bucket is always implicit.
func NewHistogram(uppers []float64) *Histogram {
	if len(uppers) == 0 {
		uppers = LatencyBuckets
	}
	us := make([]float64, 0, len(uppers))
	for _, u := range uppers {
		if !math.IsInf(u, +1) {
			us = append(us, u)
		}
	}
	sort.Float64s(us)
	return &Histogram{
		uppers: us,
		counts: make([]atomic.Uint64, len(us)+1), // last = +Inf overflow
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v) // first upper >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// CumulativeBuckets returns the histogram's finite bucket upper bounds
// and a cumulative count snapshot whose final element is the +Inf
// bucket (== total count). Callers that window a histogram — an
// autoscaler computing the p99 of the last tick — subtract two
// snapshots elementwise and feed the delta to BucketQuantile.
func (h *Histogram) CumulativeBuckets() ([]float64, []uint64) {
	return h.uppers, h.snapshotCumulative()
}

// snapshotCumulative returns the cumulative per-bucket counts,
// including the +Inf bucket as the final element.
func (h *Histogram) snapshotCumulative() []uint64 {
	cum := make([]uint64, len(h.counts))
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return cum
}

// BucketQuantile estimates the p-quantile from cumulative bucket
// counts. uppers holds the finite upper bounds; cum must have
// len(uppers)+1 elements, the last being the +Inf bucket's cumulative
// count (== total). The estimate interpolates linearly within the
// target bucket assuming a uniform spread, like Prometheus's
// histogram_quantile.
//
// Degenerate inputs clamp instead of going NaN: no observations → 0,
// p below 0 → the minimum estimate, p above 1 → the maximum, and a
// quantile landing in the +Inf bucket → the largest finite upper bound
// (or 0 when there are no finite buckets).
func BucketQuantile(uppers []float64, cum []uint64, p float64) float64 {
	if len(cum) == 0 {
		return 0
	}
	total := cum[len(cum)-1]
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	rank := p * float64(total)
	i := sort.Search(len(cum), func(i int) bool { return float64(cum[i]) >= rank })
	if i >= len(uppers) { // +Inf bucket (or all mass there)
		if len(uppers) == 0 {
			return 0
		}
		return uppers[len(uppers)-1]
	}
	lower, prev := 0.0, uint64(0)
	if i > 0 {
		lower, prev = uppers[i-1], cum[i-1]
	}
	in := cum[i] - prev
	if in == 0 {
		return uppers[i]
	}
	frac := (rank - float64(prev)) / float64(in)
	if frac < 0 {
		frac = 0
	} else if frac > 1 {
		frac = 1
	}
	return lower + (uppers[i]-lower)*frac
}
