// Package nicsim models a SoC SmartNIC — the substrate the paper runs on
// (NVIDIA BlueField-2, plus AMD Pensando for the generalization study).
// Physical hardware is unavailable in this reproduction, so the package
// implements the architectural mechanisms Yala's models approximate:
//
//   - a shared memory subsystem (LLC occupancy under contention, miss-ratio
//     curves, DRAM bandwidth saturation),
//   - hardware accelerators arbitrated by round-robin over per-NF request
//     queues, simulated event-by-event with jittered service times, and
//   - ARM PMU-style performance counters (Table 11 of the paper) derived
//     from simulator state with measurement noise.
//
// Ground truth is intentionally richer than Yala's closed-form models:
// the accelerator is a discrete-event queue (not Eq. 1), and the memory
// system is a smooth occupancy/bandwidth model (not a GBR), so the
// prediction problem stays non-trivial.
package nicsim

// AccelKind identifies an onboard hardware accelerator.
type AccelKind int

// Accelerator kinds present on the simulated NICs.
const (
	AccelRegex AccelKind = iota
	AccelCompress
	numAccelKinds
)

// AccelKinds returns every accelerator kind in fixed declaration order —
// the canonical iteration order for code that must be deterministic
// across runs (model composition, feature assembly) where ranging over
// an AccelKind-keyed map would not be.
func AccelKinds() []AccelKind {
	return []AccelKind{AccelRegex, AccelCompress}
}

// String names the accelerator.
func (k AccelKind) String() string {
	switch k {
	case AccelRegex:
		return "regex"
	case AccelCompress:
		return "compress"
	}
	return "accel?"
}

// AccelConfig describes one accelerator's service characteristics. A
// request over b bytes containing m matches takes
//
//	BaseSec + b·PerByteSec + m·PerMatchSec
//
// seconds of engine time, jittered by ±Jitter (relative std dev).
type AccelConfig struct {
	BaseSec     float64
	PerByteSec  float64
	PerMatchSec float64
	Jitter      float64
}

// Config is the hardware parameter set for one SmartNIC model.
type Config struct {
	// Name identifies the preset ("bluefield2", "pensando").
	Name string

	// Cores is the number of SoC cores; CoreHz their clock rate.
	Cores  int
	CoreHz float64

	// LLCBytes is the shared last-level cache capacity.
	LLCBytes float64

	// CacheHitSec is the latency of an access served by the cache
	// hierarchy; MissPenaltySec the additional uncontended DRAM latency
	// of a miss. LineBytes is the cache line size.
	CacheHitSec    float64
	MissPenaltySec float64
	LineBytes      float64

	// DRAMBandwidth is peak memory bandwidth in bytes/s. As demand
	// approaches it, miss penalties inflate queueing-style.
	DRAMBandwidth float64

	// BaseMissRatio is the compulsory miss ratio seen even with the
	// working set fully cached.
	BaseMissRatio float64

	// LineRateBps is the aggregate port rate in bits/s (0 = uncapped).
	LineRateBps float64

	// Accels holds the accelerator parameter sets present on this NIC.
	Accels map[AccelKind]AccelConfig

	// MeasureNoise is the relative std dev applied to measured
	// throughputs and counters, emulating run-to-run variance.
	MeasureNoise float64

	// FreqScale models dynamic voltage and frequency scaling (the §8
	// discussion): the effective core frequency is CoreHz·FreqScale, so
	// per-packet CPU time inflates by 1/FreqScale. Zero means 1 (no
	// scaling; current SoC SmartNICs do not expose DVFS).
	FreqScale float64
}

// WithFrequencyScale returns a copy of the config under a DVFS governor
// running the cores at the given fraction of nominal frequency. It
// panics on non-positive scales.
func (c Config) WithFrequencyScale(f float64) Config {
	if f <= 0 {
		panic("nicsim: non-positive frequency scale")
	}
	c.FreqScale = f
	return c
}

// ScaleFrequency returns a copy of the config with its cores running at
// scale times their current effective frequency (an unset FreqScale
// counts as 1). It panics on non-positive scales.
func (c Config) ScaleFrequency(scale float64) Config {
	return c.WithFrequencyScale(c.freqScale() * scale)
}

// freqScale returns the effective DVFS factor.
func (c *Config) freqScale() float64 {
	if c.FreqScale <= 0 {
		return 1
	}
	return c.FreqScale
}

// BlueField2 returns the primary testbed preset: 8 ARM A72 cores at
// 2.5 GHz, 6 MB L3, DDR4, regex + compression accelerators (§7.1).
func BlueField2() Config {
	return Config{
		Name:           "bluefield2",
		Cores:          8,
		CoreHz:         2.5e9,
		LLCBytes:       6 << 20,
		CacheHitSec:    6e-9,
		MissPenaltySec: 95e-9,
		LineBytes:      64,
		DRAMBandwidth:  17e9,
		BaseMissRatio:  0.02,
		LineRateBps:    200e9, // dual ConnectX-6 100GbE ports
		Accels: map[AccelKind]AccelConfig{
			AccelRegex: {
				BaseSec:     180e-9,
				PerByteSec:  0.12e-9, // ~8.3 GB/s scan rate
				PerMatchSec: 320e-9,
				Jitter:      0.06,
			},
			AccelCompress: {
				BaseSec:     400e-9,
				PerByteSec:  0.35e-9, // ~2.9 GB/s
				PerMatchSec: 0,
				Jitter:      0.06,
			},
		},
		MeasureNoise: 0.01,
	}
}

// Pensando returns the secondary SoC preset used for the generalization
// experiment (Table 9): more cores, a larger LLC, different accelerator
// timings. Values are representative of the DSC class, not measured.
func Pensando() Config {
	return Config{
		Name:           "pensando",
		Cores:          16,
		CoreHz:         2.8e9,
		LLCBytes:       8 << 20,
		CacheHitSec:    5e-9,
		MissPenaltySec: 80e-9,
		LineBytes:      64,
		DRAMBandwidth:  25e9,
		BaseMissRatio:  0.02,
		LineRateBps:    200e9,
		Accels: map[AccelKind]AccelConfig{
			AccelRegex: {
				BaseSec:     150e-9,
				PerByteSec:  0.10e-9,
				PerMatchSec: 260e-9,
				Jitter:      0.06,
			},
			AccelCompress: {
				BaseSec:     350e-9,
				PerByteSec:  0.30e-9,
				PerMatchSec: 0,
				Jitter:      0.06,
			},
		},
		MeasureNoise: 0.01,
	}
}
