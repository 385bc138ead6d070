package core

import (
	"fmt"
	"math"

	"repro/internal/ml"
	"repro/internal/nf"
	"repro/internal/nfbench"
	"repro/internal/nicsim"
	"repro/internal/profiling"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

// Model is a trained Yala model for one NF: a solo-throughput model, a
// memory contention model, per-accelerator queueing models, and the
// detected execution pattern.
type Model struct {
	Name    string
	Pattern nicsim.ExecPattern
	Solo    *SoloModel
	Mem     *MemModel
	Accels  map[nicsim.AccelKind]*AccelModel
}

// TrainConfig tunes offline training.
type TrainConfig struct {
	// Plan is the profiling plan for memory-contention sampling. Nil
	// runs the paper's adaptive profiling (Algorithm 1,
	// AdaptivePlanSource) at a quota of DefaultMemSamples.
	Plan *profiling.Plan
	// GBR configures the black-box models.
	GBR ml.GBRConfig
	// PatternProbes is the number of combined-contention co-runs used to
	// detect the execution pattern.
	PatternProbes int
	// TrafficAware toggles §5's traffic augmentation (Yala: true; the
	// fixed-traffic ablation: false).
	TrafficAware bool
	// Seed drives sampling randomness.
	Seed uint64
}

// DefaultMemSamples is the default adaptive-profiling quota.
const DefaultMemSamples = 800

// DefaultTrainConfig returns Yala's standard training setup.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		GBR:           ml.DefaultGBRConfig(),
		PatternProbes: 3,
		TrafficAware:  true,
		Seed:          1,
	}
}

// Trainer fits Yala models against a testbed.
type Trainer struct {
	TB  *testbed.Testbed
	Cfg TrainConfig
}

// WorkloadSource supplies the hardware workload of the NF under training
// at a given traffic profile. Catalog NFs use the testbed's measured
// footprints; synthetic NFs (NF1/NF2 of the composition experiments)
// supply theirs directly.
type WorkloadSource func(traffic.Profile) (*nicsim.Workload, error)

// NewTrainer returns a trainer.
func NewTrainer(tb *testbed.Testbed, cfg TrainConfig) *Trainer {
	return &Trainer{TB: tb, Cfg: cfg}
}

// benchCalib holds measured regex-/compression-bench parameters.
type benchCalib struct {
	serviceSec float64
	queues     float64
	bytesPer   float64
	attrValue  float64 // the bench's own attribute (MTBR) during calibration
}

// Train profiles the named catalog NF and fits its Yala model (§3's
// offline phase): solo sweeps, mem-bench co-runs for the memory model,
// saturated regex-/compression-bench co-runs for the accelerator models,
// and combined probes for execution-pattern detection.
func (tr *Trainer) Train(name string) (*Model, error) {
	src := func(p traffic.Profile) (*nicsim.Workload, error) {
		return tr.TB.Workload(name, p)
	}
	return tr.TrainSource(name, src, nf.UsesAccelerator(name))
}

// TrainSource is Train for an explicit workload source and accelerator
// list.
func (tr *Trainer) TrainSource(name string, src WorkloadSource, accels []nicsim.AccelKind) (*Model, error) {
	plan := tr.Cfg.Plan
	if plan == nil {
		var err error
		plan, err = tr.AdaptivePlanSource(src, profiling.DefaultConfig(DefaultMemSamples))
		if err != nil {
			return nil, err
		}
	}

	model := &Model{Name: name, Accels: map[nicsim.AccelKind]*AccelModel{}}

	// Solo model: reuse the plan's solo observations and add the
	// distinct contended-sample profiles.
	soloSamples, soloCache, err := tr.soloSamples(src, plan)
	if err != nil {
		return nil, err
	}
	model.Solo, err = FitSoloModel(soloSamples, tr.Cfg.GBR)
	if err != nil {
		return nil, err
	}

	// Memory model from the plan's contended samples plus zero-contention
	// anchors (the solo observations with empty competitor counters), so
	// the model is well-behaved at and near no contention.
	memSamples, err := tr.memSamples(src, plan, soloCache)
	if err != nil {
		return nil, err
	}
	for _, s := range soloSamples {
		memSamples = append(memSamples, MemSample{
			Profile:        s.Profile,
			Throughput:     s.Throughput,
			SoloThroughput: s.Throughput,
		})
	}
	model.Mem, err = FitMemModel(memSamples, tr.Cfg.TrafficAware, tr.Cfg.GBR)
	if err != nil {
		return nil, err
	}

	// Accelerator models.
	for _, kind := range accels {
		am, err := tr.fitAccel(src, kind)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %v accelerator: %w", name, kind, err)
		}
		model.Accels[kind] = am
	}

	// Execution pattern: detected from combined-contention probes for
	// multi-resource NFs; single-resource NFs default to
	// run-to-completion (composition is degenerate for them anyway).
	if len(model.Accels) > 0 {
		pattern, err := tr.detectPattern(src, soloCache)
		if err != nil {
			return nil, err
		}
		model.Pattern = pattern
	} else {
		model.Pattern = nicsim.RunToCompletion
	}
	return model, nil
}

// AdaptivePlan runs the paper's Algorithm 1 against the testbed: the solo
// oracle is a solo run of the NF at each probed profile.
func (tr *Trainer) AdaptivePlan(name string, cfg profiling.Config) (*profiling.Plan, error) {
	return tr.AdaptivePlanSource(func(p traffic.Profile) (*nicsim.Workload, error) {
		return tr.TB.Workload(name, p)
	}, cfg)
}

// AdaptivePlanSource is AdaptivePlan for an explicit workload source.
func (tr *Trainer) AdaptivePlanSource(src WorkloadSource, cfg profiling.Config) (*profiling.Plan, error) {
	return profiling.Adaptive(func(p traffic.Profile) (float64, error) {
		w, err := src(p)
		if err != nil {
			return 0, err
		}
		m, err := tr.TB.RunSolo(w)
		if err != nil {
			return 0, err
		}
		return m.Throughput, nil
	}, cfg)
}

// soloSamples measures solo throughput at every profile the plan touches.
func (tr *Trainer) soloSamples(src WorkloadSource, plan *profiling.Plan) ([]SoloSample, map[traffic.Profile]float64, error) {
	cache := map[traffic.Profile]float64{}
	var samples []SoloSample
	add := func(p traffic.Profile) error {
		if _, ok := cache[p]; ok {
			return nil
		}
		w, err := src(p)
		if err != nil {
			return err
		}
		m, err := tr.TB.RunSolo(w)
		if err != nil {
			return err
		}
		cache[p] = m.Throughput
		samples = append(samples, SoloSample{Profile: p, Throughput: m.Throughput})
		return nil
	}
	for _, o := range plan.SoloObs {
		if _, ok := cache[o.Profile]; !ok {
			cache[o.Profile] = o.Throughput
			samples = append(samples, SoloSample{Profile: o.Profile, Throughput: o.Throughput})
		}
	}
	if err := add(traffic.Default); err != nil {
		return nil, nil, err
	}
	for _, s := range plan.Samples {
		if err := add(s.Profile); err != nil {
			return nil, nil, err
		}
	}
	return samples, cache, nil
}

// memSamples collects the plan's contended measurements. The feature
// counters come from a solo run of the contention generator at the same
// level — the same offline-profile representation the online predictor
// receives for real competitors, keeping train and test feature
// distributions aligned.
func (tr *Trainer) memSamples(src WorkloadSource, plan *profiling.Plan, soloCache map[traffic.Profile]float64) ([]MemSample, error) {
	var samples []MemSample
	for _, spec := range plan.Samples {
		w, err := src(spec.Profile)
		if err != nil {
			return nil, err
		}
		bench := nfbench.MemBench(spec.Contention.CAR, spec.Contention.WSS)
		benchSolo, err := tr.TB.RunSolo(bench)
		if err != nil {
			return nil, err
		}
		m, err := tr.TB.WithMemBench(w, spec.Contention.CAR, spec.Contention.WSS)
		if err != nil {
			return nil, err
		}
		solo, ok := soloCache[spec.Profile]
		if !ok || solo <= 0 {
			return nil, fmt.Errorf("core: missing solo baseline for %v", spec.Profile)
		}
		samples = append(samples, MemSample{
			Competitors:    benchSolo.Counters,
			Profile:        spec.Profile,
			Throughput:     m.Throughput,
			SoloThroughput: solo,
		})
	}
	return samples, nil
}

// calibrateBench measures a synthetic bench's true per-request service
// time by running it saturated and alone.
func (tr *Trainer) calibrateBench(kind nicsim.AccelKind) (benchCalib, error) {
	const (
		benchBytes = 1000
		benchMTBR  = 2000 // high match rate per §4.1.1's estimation setup
	)
	var w *nicsim.Workload
	switch kind {
	case nicsim.AccelCompress:
		w = nfbench.CompressBench(1e9, benchBytes, 1)
	default:
		w = nfbench.RegexBench(1e9, benchBytes, benchMTBR, 1)
	}
	m, err := tr.TB.RunSolo(w)
	if err != nil {
		return benchCalib{}, err
	}
	st, ok := m.AccelStats[kind]
	if !ok || st.RequestRate <= 0 {
		return benchCalib{}, fmt.Errorf("core: bench calibration produced no %v completions", kind)
	}
	return benchCalib{
		serviceSec: 1 / st.RequestRate,
		queues:     1,
		bytesPer:   benchBytes,
		attrValue:  benchMTBR,
	}, nil
}

// fitAccel runs the §4.1.1 estimation procedure for one accelerator.
func (tr *Trainer) fitAccel(src WorkloadSource, kind nicsim.AccelKind) (*AccelModel, error) {
	// The attribute values swept during calibration: packet size for
	// compression, MTBR for regex.
	attr := AttrFor(kind)
	points := []float64{100, 400, 700, 1000}
	if attr == traffic.AttrPktSize {
		points = []float64{128, 512, 1024, 1500}
	}
	calib, err := tr.calibrateBench(kind)
	if err != nil {
		return nil, err
	}
	var samples []AccelSample
	var reqsPerPkt float64
	for _, v := range points {
		prof := traffic.Default.With(attr, v)
		w, err := src(prof)
		if err != nil {
			return nil, err
		}
		u, ok := w.Accel[kind]
		if !ok {
			return nil, fmt.Errorf("core: workload %s does not use %v at %v", w.Name, kind, prof)
		}
		reqsPerPkt = u.ReqsPerPkt
		var bench *nicsim.Workload
		if kind == nicsim.AccelCompress {
			bench = nfbench.CompressBench(1e9, calib.bytesPer, 1)
		} else {
			bench = nfbench.RegexBench(1e9, calib.bytesPer, calib.attrValue, 1)
		}
		ms, err := tr.TB.Run(w, bench)
		if err != nil {
			return nil, err
		}
		tst, ok1 := ms[0].AccelStats[kind]
		bst, ok2 := ms[1].AccelStats[kind]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("core: calibration co-run missing %v stats", kind)
		}
		samples = append(samples, AccelSample{
			Attr:            v,
			TargetRate:      tst.RequestRate,
			BenchRate:       bst.RequestRate,
			BenchServiceSec: calib.serviceSec,
			BenchQueues:     calib.queues,
		})
	}
	return FitAccelModel(samples, attr, reqsPerPkt)
}

// detectPattern probes combined contention and picks the composition that
// explains the measurements best (§4.2's testing procedure).
func (tr *Trainer) detectPattern(src WorkloadSource, soloCache map[traffic.Profile]float64) (nicsim.ExecPattern, error) {
	w, err := src(traffic.Default)
	if err != nil {
		return 0, err
	}
	solo, ok := soloCache[traffic.Default]
	if !ok {
		m, err := tr.TB.RunSolo(w)
		if err != nil {
			return 0, err
		}
		solo = m.Throughput
	}

	rng := sim.NewRNG(tr.Cfg.Seed ^ 0xbeef)
	probes := tr.Cfg.PatternProbes
	if probes <= 0 {
		probes = 3
	}
	// Probe in the linear (non-saturated) contention regime: at deep
	// accelerator saturation every NF degenerates to its round-robin
	// share and the two composition laws coincide, so only moderate
	// contention discriminates them.
	var obs []PatternObservation
	b := testbed.MemContentionBounds
	for i := 0; i < probes; i++ {
		car := rng.Range(b.CARHi/6, b.CARHi/2)
		wss := rng.Range(b.WSSHi/4, b.WSSHi/2)
		regexRate := rng.Range(0.25e6, 0.5e6)

		memOnly, err := tr.TB.WithMemBench(w, car, wss)
		if err != nil {
			return 0, err
		}
		bench := nfbench.RegexBench(regexRate, 1000, 2000, 1)
		accOnly, err := tr.TB.Run(w, bench)
		if err != nil {
			return 0, err
		}
		both, err := tr.TB.Run(w, nfbench.MemBench(car, wss), bench)
		if err != nil {
			return 0, err
		}
		obs = append(obs, PatternObservation{
			SoloT: solo,
			Drops: []float64{
				math.Max(0, solo-memOnly.Throughput),
				math.Max(0, solo-accOnly[0].Throughput),
			},
			Measured: both[0].Throughput,
		})
	}
	return DetectPattern(obs), nil
}
