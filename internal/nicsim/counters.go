package nicsim

import "repro/internal/sim"

// Counters are the seven hardware performance counters the paper trains
// memory models on (Table 11), sampled over a measurement interval.
// Rates are per second.
type Counters struct {
	IPC   float64 // instructions per cycle
	IRT   float64 // instructions retired per second
	L2CRD float64 // L2 data cache read accesses per second
	L2CWR float64 // L2 data cache write accesses per second
	MEMRD float64 // data memory (DRAM) read accesses per second
	MEMWR float64 // data memory (DRAM) write accesses per second
	WSS   float64 // working set size, bytes
}

// CAR is the cache access rate: the sum of cache read and write rates,
// the contention metric the paper plots throughout (Mref/s).
func (c Counters) CAR() float64 { return c.L2CRD + c.L2CWR }

// Vector returns the counters as an ML feature vector in a fixed order.
func (c Counters) Vector() []float64 {
	return []float64{c.IPC, c.IRT, c.L2CRD, c.L2CWR, c.MEMRD, c.MEMWR, c.WSS}
}

// Add accumulates other into c (used to aggregate competitor counters).
func (c *Counters) Add(other Counters) {
	c.IRT += other.IRT
	c.L2CRD += other.L2CRD
	c.L2CWR += other.L2CWR
	c.MEMRD += other.MEMRD
	c.MEMWR += other.MEMWR
	c.WSS += other.WSS
	// IPC is intensive, not additive; keep a demand-weighted proxy by
	// simple mean of nonzero terms.
	if other.IPC > 0 {
		if c.IPC == 0 {
			c.IPC = other.IPC
		} else {
			c.IPC = (c.IPC + other.IPC) / 2
		}
	}
}

// deriveCounters computes a workload's counters from the converged
// simulator state. The split of reads vs writes uses a 70/30 ratio typical
// of packet-processing table workloads.
func deriveCounters(cfg *Config, w *Workload, tput float64, ms memState, noise *sim.RNG) Counters {
	instrPerPkt := w.CPUSecPerPkt * cfg.CoreHz * 1.1 // ~1.1 IPC peak; instruction count is frequency-independent
	cyclesPerPkt := (w.CPUSecPerPkt/cfg.freqScale() + ms.memSec) * cfg.CoreHz * cfg.freqScale()
	var ipc float64
	if cyclesPerPkt > 0 {
		ipc = instrPerPkt / cyclesPerPkt
	}
	c := Counters{
		IPC:   ipc,
		IRT:   instrPerPkt * tput,
		L2CRD: 0.7 * ms.accessRate,
		L2CWR: 0.3 * ms.accessRate,
		MEMRD: 0.7 * ms.accessRate * ms.missRatio,
		MEMWR: 0.3 * ms.accessRate * ms.missRatio,
		WSS:   w.WSSBytes,
	}
	if noise != nil && cfg.MeasureNoise > 0 {
		c.IPC = noise.Jitter(c.IPC, cfg.MeasureNoise)
		c.IRT = noise.Jitter(c.IRT, cfg.MeasureNoise)
		c.L2CRD = noise.Jitter(c.L2CRD, cfg.MeasureNoise)
		c.L2CWR = noise.Jitter(c.L2CWR, cfg.MeasureNoise)
		c.MEMRD = noise.Jitter(c.MEMRD, cfg.MeasureNoise)
		c.MEMWR = noise.Jitter(c.MEMWR, cfg.MeasureNoise)
		c.WSS = noise.Jitter(c.WSS, cfg.MeasureNoise/2)
	}
	return c
}
