package main

import (
	"bytes"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// quantile is the linearly interpolated p-quantile; 0 for no values.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spreadPct is (max - min) / median of the values, in percent.
func spreadPct(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return 100 * ratio(hi-lo, median(xs))
}

// finite reports whether v can be printed as a JSON number.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// parallel runs fn(worker, i) for every i in [0, n), index i on worker
// i mod workers, each worker stopping at its first error.
func parallel(workers, n int, fn func(worker, i int) error) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n && errs[w] == nil; i += workers {
				errs[w] = fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	return firstError(errs)
}

// firstErr keeps the first error a run of single-caller rungs hits.
type firstErr struct{ err error }

func (f *firstErr) note(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// percentile is the nearest-rank p-quantile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, 0 when b is 0 — the value of a per-op row when the
// layer saw no ops.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU so far. Client goroutines and
// servers share the process, so the figure covers both ends of every op.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procSnap is the runtime's allocation and GC state at one instant.
type procSnap struct {
	mallocs, bytes, pauseNs uint64
	gc                      uint32
}

func readProc() procSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSnap{mallocs: m.Mallocs, bytes: m.TotalAlloc, pauseNs: m.PauseTotalNs, gc: m.NumGC}
}

// heapWatch samples live heap bytes until stopped and reports the peak.
type heapWatch struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapWatch) peakMB() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}

// scrape renders a component's own metric registry and parses it back:
// the benchmark reads counters the way an operator's scraper would, not
// through private fields.
func scrape(r *obs.Registry) *obs.Exposition {
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		return &obs.Exposition{}
	}
	exp, err := obs.ParseExposition(&buf)
	if err != nil {
		return &obs.Exposition{}
	}
	return exp
}

// counterSum adds every sample of one family whose labels contain
// labelSubstr.
func counterSum(e *obs.Exposition, name, labelSubstr string) float64 {
	total := 0.0
	for _, s := range e.Samples {
		if s.Name == name && strings.Contains(s.Labels, labelSubstr) {
			total += s.Value
		}
	}
	return total
}

// histTotals adds sum and count over every label set of a histogram
// family that contains labelSubstr.
func histTotals(e *obs.Exposition, family, labelSubstr string) (sum, count float64) {
	return counterSum(e, family+"_sum", labelSubstr), counterSum(e, family+"_count", labelSubstr)
}

// mix is the splitmix64 finaliser over seed and index: the stateless
// source every generated input draws from, so input i is the same
// whichever window or client consumes it.
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
