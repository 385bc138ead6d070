package nicsim

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// AccelStat summarizes one workload's interaction with one accelerator
// over a measurement run.
type AccelStat struct {
	RequestRate    float64 // requests/s completed
	MatchRate      float64 // ruleset matches/s flowing through the engine
	MeanSojournSec float64 // average queueing + service time per request
	MeanServiceSec float64 // average service time per request
	Queues         int
}

// Measurement is the observable outcome for one workload in a co-location
// run: throughput, its own counters, and the aggregate contention level of
// its competitors (what prediction models receive as input).
type Measurement struct {
	Name       string
	Throughput float64 // packets/s

	// Counters are the workload's own PMU counters; Competitors holds the
	// aggregated counters of all co-located workloads, the "contention
	// level" input of SLOMO-style models.
	Counters    Counters
	Competitors Counters

	// AccelStats describes the workload's accelerator usage;
	// CompetitorAccel the aggregate competing demand per accelerator.
	AccelStats      map[AccelKind]AccelStat
	CompetitorAccel map[AccelKind]AccelStat

	// Bottleneck is the simulator's ground-truth attribution of the
	// binding resource (the "perf hotspot analysis" stand-in, §7.5.2).
	Bottleneck Resource

	// MemBandwidthUtil is the DRAM bandwidth utilization at convergence.
	MemBandwidthUtil float64
}

// NIC simulates one SmartNIC. Create with New; Run co-locates workloads.
type NIC struct {
	cfg Config
	rng *sim.RNG
}

// New returns a NIC simulator for the given hardware config. All
// randomness (service jitter, arrival processes, measurement noise)
// derives from seed.
func New(cfg Config, seed uint64) *NIC {
	return &NIC{cfg: cfg, rng: sim.NewRNG(seed)}
}

// solver iteration limits.
const (
	maxIters    = 40
	minIters    = 6
	damping     = 0.55
	convergeTol = 4e-3
	desEventsIt = 6000  // DES arrivals per accel per solver iterate
	desEventsFi = 24000 // DES arrivals for the final measurement pass
)

// Run co-locates the workloads on the NIC and measures each one's maximum
// throughput at equilibrium. Contention is mutual, so the solver iterates
// between the memory model, the accelerator simulations, and the
// throughput equations until a fixed point, then takes a measurement pass
// with noise.
func (n *NIC) Run(ws ...*Workload) ([]Measurement, error) {
	if len(ws) == 0 {
		return nil, fmt.Errorf("nicsim: Run with no workloads")
	}
	var cores int
	for _, w := range ws {
		if err := w.Validate(); err != nil {
			return nil, err
		}
		cores += w.Cores
	}
	if cores > n.cfg.Cores {
		return nil, fmt.Errorf("nicsim: workloads need %d cores, NIC %s has %d",
			cores, n.cfg.Name, n.cfg.Cores)
	}
	rng := n.rng.Split()

	tput := make([]float64, len(ws))
	for i, w := range ws {
		tput[i] = n.initialRate(w)
	}

	var (
		mem      []memState
		memUtil  float64
		accelRes map[AccelKind][]accelResult
	)
	for iter := 0; iter < maxIters; iter++ {
		mem, memUtil = memSolve(&n.cfg, ws, tput)
		accelRes = n.solveAccels(ws, tput, mem, rng, desEventsIt)

		maxRel := 0.0
		for i, w := range ws {
			next := n.workloadRate(w, mem[i], accelRes, i)
			if tput[i] > 0 {
				rel := math.Abs(next-tput[i]) / tput[i]
				if rel > maxRel {
					maxRel = rel
				}
			}
			tput[i] = damping*tput[i] + (1-damping)*next
		}
		if iter >= minIters && maxRel < convergeTol {
			break
		}
	}

	// Final measurement pass: bigger accelerator window, then noise.
	mem, memUtil = memSolve(&n.cfg, ws, tput)
	accelRes = n.solveAccels(ws, tput, mem, rng, desEventsFi)

	measurements := make([]Measurement, len(ws))
	for i, w := range ws {
		rate := n.workloadRate(w, mem[i], accelRes, i)
		m := Measurement{
			Name:             w.Name,
			Throughput:       rng.Jitter(rate, n.cfg.MeasureNoise),
			Counters:         deriveCounters(&n.cfg, w, rate, mem[i], rng),
			AccelStats:       map[AccelKind]AccelStat{},
			CompetitorAccel:  map[AccelKind]AccelStat{},
			Bottleneck:       n.bottleneck(w, mem[i], accelRes, i),
			MemBandwidthUtil: memUtil,
		}
		for kind, res := range accelRes {
			u := ws[i].Accel[kind]
			st := res[i]
			if ws[i].UsesAccel(kind) {
				m.AccelStats[kind] = AccelStat{
					RequestRate:    st.completionRate,
					MatchRate:      st.completionRate * u.MatchesPerReq,
					MeanSojournSec: st.meanSojourn,
					MeanServiceSec: st.meanService,
					Queues:         u.Queues,
				}
			}
		}
		measurements[i] = m
	}
	// Aggregate competitor views.
	for i := range ws {
		for j := range ws {
			if i == j {
				continue
			}
			measurements[i].Competitors.Add(measurements[j].Counters)
			for kind, st := range measurements[j].AccelStats {
				agg := measurements[i].CompetitorAccel[kind]
				agg.RequestRate += st.RequestRate
				agg.MatchRate += st.MatchRate
				agg.Queues += st.Queues
				agg.MeanServiceSec = math.Max(agg.MeanServiceSec, st.MeanServiceSec)
				measurements[i].CompetitorAccel[kind] = agg
			}
		}
	}
	return measurements, nil
}

// RunSolo measures a single workload with the NIC to itself — the paper's
// baseline configuration.
func (n *NIC) RunSolo(w *Workload) (Measurement, error) {
	ms, err := n.Run(w)
	if err != nil {
		return Measurement{}, err
	}
	return ms[0], nil
}

// cpuSec is the workload's per-packet CPU time under the configured
// DVFS frequency scale.
func (n *NIC) cpuSec(w *Workload) float64 {
	return w.CPUSecPerPkt / n.cfg.freqScale()
}

// initialRate seeds the solver with an optimistic uncontended estimate.
func (n *NIC) initialRate(w *Workload) float64 {
	perPkt := n.cpuSec(w) + w.MemRefsPerPkt*n.cfg.CacheHitSec
	rate := math.Inf(1)
	if perPkt > 0 {
		rate = float64(w.Cores) / perPkt
	}
	if w.OfferedRate > 0 && w.OfferedRate < rate {
		rate = w.OfferedRate
	}
	if lr := n.lineRate(w); lr < rate {
		rate = lr
	}
	if math.IsInf(rate, 1) {
		rate = 1e9
	}
	return rate
}

func (n *NIC) lineRate(w *Workload) float64 {
	if n.cfg.LineRateBps <= 0 {
		return math.Inf(1)
	}
	return n.cfg.LineRateBps / (8 * w.PktBytes)
}

// solveAccels runs each in-use accelerator's DES at the workloads' current
// offered rates.
func (n *NIC) solveAccels(ws []*Workload, tput []float64, mem []memState, rng *sim.RNG, minEvents int) map[AccelKind][]accelResult {
	out := map[AccelKind][]accelResult{}
	for kind := AccelKind(0); kind < numAccelKinds; kind++ {
		inUse := false
		for _, w := range ws {
			if w.UsesAccel(kind) {
				inUse = true
				break
			}
		}
		if !inUse {
			continue
		}
		cfg, ok := n.cfg.Accels[kind]
		if !ok {
			continue
		}
		users := make([]accelUser, len(ws))
		for i, w := range ws {
			u, used := w.Accel[kind]
			if !used || u.ReqsPerPkt <= 0 {
				continue
			}
			users[i] = accelUser{
				bytes:   u.BytesPerReq,
				matches: u.MatchesPerReq,
				queues:  u.Queues,
			}
			if w.OfferedRate <= 0 && w.Pattern == RunToCompletion {
				// A run-to-completion NF keeps one request in flight per
				// core, with the packet's CPU+memory work as think time.
				users[i].closed = true
				users[i].population = w.Cores
				users[i].thinkSec = (n.cpuSec(w) + mem[i].memSec) / u.ReqsPerPkt
			} else {
				offeredPkts := n.accelOfferedPkts(w, mem[i], tput[i])
				users[i].offered = offeredPkts * u.ReqsPerPkt
			}
		}
		out[kind] = simulateAccel(cfg, users, rng, minEvents)
	}
	return out
}

// accelOfferedPkts is the packet rate a workload pushes into an
// accelerator. A pipeline NF dispatches as fast as its core stage allows
// (the accelerator queue absorbs the difference); a run-to-completion NF
// dispatches at its current overall rate; an open-loop generator at its
// configured rate.
func (n *NIC) accelOfferedPkts(w *Workload, ms memState, cur float64) float64 {
	if w.OfferedRate > 0 {
		return math.Min(w.OfferedRate, n.coreStageRate(w, ms))
	}
	if w.Pattern == Pipeline {
		return math.Min(n.coreStageRate(w, ms), n.lineRate(w))
	}
	return cur
}

// coreStageRate is the packet rate the CPU+memory stage sustains.
func (n *NIC) coreStageRate(w *Workload, ms memState) float64 {
	perPkt := n.cpuSec(w) + ms.memSec
	if perPkt <= 0 {
		return math.Inf(1)
	}
	return float64(w.Cores) / perPkt
}

// workloadRate computes a workload's end-to-end throughput from the
// current per-resource state, according to its execution pattern.
func (n *NIC) workloadRate(w *Workload, ms memState, accel map[AccelKind][]accelResult, idx int) float64 {
	var rate float64
	switch w.Pattern {
	case Pipeline:
		// Throughput of a pipeline is its slowest stage.
		rate = n.coreStageRate(w, ms)
		for kind, res := range accel {
			u, used := w.Accel[kind]
			if !used || u.ReqsPerPkt <= 0 {
				continue
			}
			if c := res[idx].completionRate / u.ReqsPerPkt; c > 0 && c < rate {
				rate = c
			}
		}
	case RunToCompletion:
		// Each packet holds a core through every stage, including
		// accelerator round trips.
		perPkt := n.cpuSec(w) + ms.memSec
		for kind, res := range accel {
			u, used := w.Accel[kind]
			if !used || u.ReqsPerPkt <= 0 {
				continue
			}
			perPkt += u.ReqsPerPkt * res[idx].meanSojourn
		}
		if perPkt <= 0 {
			return math.Inf(1)
		}
		rate = float64(w.Cores) / perPkt
	}
	if w.OfferedRate > 0 && w.OfferedRate < rate {
		rate = w.OfferedRate
	}
	if lr := n.lineRate(w); lr < rate {
		rate = lr
	}
	return rate
}

// bottleneck attributes the binding resource for a workload.
func (n *NIC) bottleneck(w *Workload, ms memState, accel map[AccelKind][]accelResult, idx int) Resource {
	memVsCPU := func() Resource {
		if ms.memSec > n.cpuSec(w) {
			return ResMemory
		}
		return ResCPU
	}
	switch w.Pattern {
	case Pipeline:
		// The accelerator stage binds only if its queue could not absorb
		// the offered load; otherwise the core (CPU/memory) stage does.
		minRate := n.coreStageRate(w, ms)
		res := memVsCPU()
		for kind, r := range accel {
			u, used := w.Accel[kind]
			if !used || u.ReqsPerPkt <= 0 || !r[idx].saturated() {
				continue
			}
			if c := r[idx].completionRate / u.ReqsPerPkt; c > 0 && c < minRate {
				minRate = c
				res = AccelResource(kind)
			}
		}
		if lr := n.lineRate(w); lr < minRate {
			return ResNICPort
		}
		return res
	default:
		// Largest per-packet time component wins.
		best, bestT := memVsCPU(), math.Max(ms.memSec, n.cpuSec(w))
		for kind, r := range accel {
			u, used := w.Accel[kind]
			if !used || u.ReqsPerPkt <= 0 {
				continue
			}
			if t := u.ReqsPerPkt * r[idx].meanSojourn; t > bestT {
				bestT = t
				best = AccelResource(kind)
			}
		}
		return best
	}
}
