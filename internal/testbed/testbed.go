// Package testbed wires the simulated SmartNIC, the real NF
// implementations and the synthetic benchmarks into the experiment rig
// the paper's evaluation runs on: measure an NF's footprint under a
// traffic profile, co-run it with competitors or contention generators,
// and read back throughputs and counters.
//
// A Testbed splits into a part whose results do not depend on call
// order and a part whose results do:
//
//   - Footprints (Workload, WarmWorkloads) are seeded by their (NF,
//     profile) key alone. They may be measured from any number of
//     goroutines at once: a flight.Group measures each key once, by
//     whoever asks first, and every caller gets the same
//     *nicsim.Workload.
//   - Runs (Run, RunSolo, SoloNF and the With* co-runs) are single-caller.
//     Each run is seeded by its position in call order, so a caller that
//     wants reproducible measurements issues them from one goroutine in
//     a fixed order.
package testbed

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/flight"
	"repro/internal/nf"
	"repro/internal/nfbench"
	"repro/internal/nicsim"
	"repro/internal/traffic"
)

// Testbed binds one NIC configuration and a base seed. It caches NF
// footprint measurements per (NF, profile) since footprints are
// deterministic given both.
type Testbed struct {
	cfg  nicsim.Config
	seed uint64

	workloads flight.Group[workloadKey, measured]
	runSeq    uint64
}

type workloadKey struct {
	name    string
	profile traffic.Profile
}

// measured is one key's measurement. Its error is cached with it, since
// whether a measurement fails depends on its key alone.
type measured struct {
	w   *nicsim.Workload
	err error
}

// nfMeasure is the footprint measurement behind every cache miss.
var nfMeasure = nf.Measure

// New returns a testbed on the given NIC model.
func New(cfg nicsim.Config, seed uint64) *Testbed {
	return &Testbed{cfg: cfg, seed: seed}
}

// Config returns the NIC hardware configuration.
func (tb *Testbed) Config() nicsim.Config { return tb.cfg }

// Workload measures (or returns the cached) hardware footprint of the
// named catalog NF under a traffic profile. It is safe for concurrent
// use: callers asking for a key that is being measured wait for that
// measurement instead of repeating it. If the measurement panics, the
// waiters get an error, the key is left uncached so the next caller
// measures it again, and the panic goes on up the measuring caller's
// stack.
func (tb *Testbed) Workload(name string, prof traffic.Profile) (*nicsim.Workload, error) {
	c := tb.workloads.Join(workloadKey{name, prof}, 0, func() (measured, error) {
		w, err := tb.measure(name, prof)
		return measured{w, err}, nil
	})
	<-c.Done()
	m, err := c.Result()
	if err != nil {
		return nil, fmt.Errorf("testbed: measuring %s under %v: %w", name, prof, err)
	}
	return m.w, m.err
}

func (tb *Testbed) measure(name string, prof traffic.Profile) (*nicsim.Workload, error) {
	n, err := nf.New(name)
	if err != nil {
		return nil, err
	}
	// Seed derived from the key so footprints are stable regardless of
	// measurement order.
	h := tb.seed
	for _, c := range name {
		h = h*31 + uint64(c)
	}
	h ^= uint64(prof.Flows)<<32 ^ uint64(prof.PktSize)<<16 ^ uint64(prof.MTBR)
	w, err := nfMeasure(n, prof, h)
	// The footprint is read and the NF is dropped: its flow table's
	// storage goes to the next measurement, not to the garbage collector.
	if r, ok := n.(nf.FlowReserver); ok {
		r.ReleaseFlows()
	}
	return w, err
}

// WarmWorkloads measures the footprints of every named NF under every
// profile, on up to GOMAXPROCS goroutines, largest flow count first; a
// footprint already cached or being measured costs a lookup. Footprints do not depend on the
// order they are measured in, so a warmed cache answers later Workload
// calls exactly as a cold one would. Measurement errors are not reported
// here: a failed key caches its error, and the caller's own Workload call
// reports it in the caller's order. A key whose measurement panics stays
// uncached, so that call measures it again and panics on the caller's
// goroutine. A cancelled context stops handing out keys; WarmWorkloads
// returns ctx.Err() once every goroutine it started has finished.
func (tb *Testbed) WarmWorkloads(ctx context.Context, names []string, profs []traffic.Profile) error {
	var keys []workloadKey
	for _, name := range names {
		for _, prof := range profs {
			keys = append(keys, workloadKey{name, prof})
		}
	}
	// A footprint's cost grows with its flow table: start the largest
	// first so the longest measurement does not begin last.
	sort.SliceStable(keys, func(i, j int) bool { return keys[i].profile.Flows > keys[j].profile.Flows })
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(keys)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(keys) {
					return
				}
				tb.warm(keys[i])
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// warm measures one key for WarmWorkloads. Its error is cached and its
// panic left for the caller's own Workload call to meet again.
func (tb *Testbed) warm(k workloadKey) {
	defer func() { recover() }()
	tb.Workload(k.name, k.profile)
}

// Run co-locates workloads on a fresh NIC instance (distinct measurement
// seed per run) and returns their measurements in input order. Runs are
// numbered in call order and are not safe for concurrent use.
func (tb *Testbed) Run(ws ...*nicsim.Workload) ([]nicsim.Measurement, error) {
	tb.runSeq++
	nic := nicsim.New(tb.cfg, tb.seed+tb.runSeq*0x9e3779b9)
	return nic.Run(ws...)
}

// RunSolo measures one workload alone.
func (tb *Testbed) RunSolo(w *nicsim.Workload) (nicsim.Measurement, error) {
	ms, err := tb.Run(w)
	if err != nil {
		return nicsim.Measurement{}, err
	}
	return ms[0], nil
}

// SoloNF measures the named NF alone under a profile.
func (tb *Testbed) SoloNF(name string, prof traffic.Profile) (nicsim.Measurement, error) {
	w, err := tb.Workload(name, prof)
	if err != nil {
		return nicsim.Measurement{}, err
	}
	return tb.RunSolo(w)
}

// WithMemBench co-runs the target workload with mem-bench at the given
// cache access rate (refs/s) and working-set size, returning the target's
// measurement.
func (tb *Testbed) WithMemBench(target *nicsim.Workload, car, wss float64) (nicsim.Measurement, error) {
	ms, err := tb.Run(target, nfbench.MemBench(car, wss))
	if err != nil {
		return nicsim.Measurement{}, err
	}
	return ms[0], nil
}

// WithRegexBench co-runs the target with regex-bench at the given request
// rate, request size and MTBR, returning both measurements (target first).
func (tb *Testbed) WithRegexBench(target *nicsim.Workload, reqRate, bytesPerReq, mtbr float64) ([]nicsim.Measurement, error) {
	return tb.Run(target, nfbench.RegexBench(reqRate, bytesPerReq, mtbr, 1))
}

// MemContention describes a mem-bench setting used across profiling and
// the experiments.
type MemContention struct {
	CAR float64 // target cache access rate, refs/s
	WSS float64 // working-set size, bytes
}

// String renders the contention level.
func (c MemContention) String() string {
	return fmt.Sprintf("car=%.0fMref/s wss=%.1fMB", c.CAR/1e6, c.WSS/(1<<20))
}

// MemContentionBounds is the range profiling samples from, matching the
// paper's figures (CAR up to ~250 Mref/s, WSS 0.5–16 MB).
var MemContentionBounds = struct{ CARLo, CARHi, WSSLo, WSSHi float64 }{
	CARLo: 5e6, CARHi: 250e6, WSSLo: 0.5 * (1 << 20), WSSHi: 16 * (1 << 20),
}
