package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/nfbench"
	"repro/internal/nicsim"
	"repro/internal/profiling"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Pseudo-composition keys for the single-resource rows of Fig. 2(b).
const (
	memOnlyKey   core.Composition = 100
	regexOnlyKey core.Composition = 101
)

// synthSource adapts a synthetic workload builder into a traffic-aware
// WorkloadSource: the regex stage's matches follow the profile MTBR, the
// compression stage's request size follows the packet size.
func synthSource(mk func(nicsim.ExecPattern) *nicsim.Workload, pattern nicsim.ExecPattern) core.WorkloadSource {
	return func(p traffic.Profile) (*nicsim.Workload, error) {
		w := mk(pattern)
		if u, ok := w.Accel[nicsim.AccelRegex]; ok {
			u.MatchesPerReq = p.MTBR * u.BytesPerReq / 1e6
			w.Accel[nicsim.AccelRegex] = u
		}
		if u, ok := w.Accel[nicsim.AccelCompress]; ok {
			payload := float64(p.PktSize) - 54
			if payload < 64 {
				payload = 64
			}
			u.BytesPerReq = payload
			w.Accel[nicsim.AccelCompress] = u
		}
		w.PktBytes = float64(p.PktSize)
		return w, nil
	}
}

// synthBuilders maps the synthetic NF names to their builders.
var synthBuilders = map[string]func(nicsim.ExecPattern) *nicsim.Workload{
	"NF1": nfbench.NF1,
	"NF2": nfbench.NF2,
}

// synthYala trains (and caches) a Yala model for a synthetic NF in a
// given execution pattern.
func (l *Lab) synthYala(name string, pattern nicsim.ExecPattern) (*core.Model, error) {
	key := fmt.Sprintf("%s/%v", name, pattern)
	if m, ok := l.yala[key]; ok {
		return m, nil
	}
	mk, ok := synthBuilders[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown synthetic NF %q", name)
	}
	accels := []nicsim.AccelKind{nicsim.AccelRegex}
	if name == "NF2" {
		accels = append(accels, nicsim.AccelCompress)
	}
	cfg := core.DefaultTrainConfig()
	cfg.Seed = l.Seed
	m, err := core.NewTrainer(l.TB, cfg).TrainSource(key, synthSource(mk, pattern), accels)
	if err != nil {
		return nil, err
	}
	l.yala[key] = m
	return m, nil
}

// synthComposition evaluates every composition strategy for a synthetic
// NF under combined contention and returns per-strategy MAPE. The map
// also contains the single-resource baselines of Fig. 2(b).
func (l *Lab) synthComposition(name string, pattern nicsim.ExecPattern) (map[core.Composition]float64, error) {
	model, err := l.synthYala(name, pattern)
	if err != nil {
		return nil, err
	}
	src := synthSource(synthBuilders[name], pattern)
	rng := sim.NewRNG(l.Seed ^ 0x5c0)

	preds := map[core.Composition][]float64{}
	var truths []float64
	for i := 0; i < l.n(40, 12); i++ {
		w, err := src(traffic.Default)
		if err != nil {
			return nil, err
		}
		memB := nfbench.MemBench(rng.Range(40e6, 160e6), rng.Range(2<<20, 12<<20))
		regexB := nfbench.RegexBench(rng.Range(0.2e6, 0.6e6), 1000, 2000, 1)
		ws := []*nicsim.Workload{w, memB, regexB}
		if name == "NF2" {
			ws = append(ws, nfbench.CompressBench(rng.Range(0.2e6, 0.5e6), 1400, 1))
		}
		ms, err := l.TB.Run(ws...)
		if err != nil {
			return nil, err
		}
		truths = append(truths, ms[0].Throughput)

		var comps []core.Competitor
		for _, bench := range ws[1:] {
			solo, err := l.TB.RunSolo(bench)
			if err != nil {
				return nil, err
			}
			comps = append(comps, core.CompetitorFromMeasurement(solo))
		}
		full := model.Predict(traffic.Default, comps)
		for _, c := range []core.Composition{core.ComposeSum, core.ComposeMin, core.ForPattern(pattern)} {
			preds[c] = append(preds[c], model.PredictWith(c, traffic.Default, comps).Throughput)
		}
		preds[memOnlyKey] = append(preds[memOnlyKey], full.PerResource[nicsim.ResMemory])
		regexT := full.PerResource[nicsim.ResRegex]
		preds[regexOnlyKey] = append(preds[regexOnlyKey], regexT)
	}
	out := map[core.Composition]float64{}
	//yalalint:ignore detmap each entry is computed from its own key alone, so iteration order cannot be observed
	for c, p := range preds {
		out[c] = ml.MAPE(p, truths)
	}
	return out, nil
}

// planKind selects a profiling strategy for the cost/accuracy studies.
type planKind int

const (
	planAdaptive planKind = iota
	planRandom
	planFull
)

// buildPlan constructs the requested plan for an NF.
func (l *Lab) buildPlan(name string, kind planKind, quota int) (*profiling.Plan, error) {
	switch kind {
	case planRandom:
		return profiling.Random(quota, l.Seed^0x9a), nil
	case planFull:
		// Reduced full grid: the paper's reference uses 16 packet sizes x
		// 200 flow counts (3200x); we grid 8x24 with 4 contention levels
		// per point, which preserves the cost ordering at tractable cost.
		grid := traffic.FullGrid(l.n(8, 4), l.n(24, 8))
		return profiling.Full(grid, 4, l.Seed^0x9b), nil
	default:
		cfg := core.DefaultTrainConfig()
		cfg.Seed = l.Seed
		return core.NewTrainer(l.TB, cfg).AdaptivePlan(name, profiling.DefaultConfig(quota))
	}
}

// profiledMAPE trains the NF's Yala model from the given plan and
// evaluates it on held-out random (profile, contention) points under
// memory contention.
func (l *Lab) profiledMAPE(name string, kind planKind, quota int) (float64, error) {
	plan, err := l.buildPlan(name, kind, quota)
	if err != nil {
		return 0, err
	}
	cfg := core.DefaultTrainConfig()
	cfg.Seed = l.Seed
	cfg.Plan = plan
	model, err := core.NewTrainer(l.TB, cfg).Train(name)
	if err != nil {
		return 0, err
	}
	rng := sim.NewRNG(l.Seed ^ 0x7e57)
	var preds, truths []float64
	for i := 0; i < l.n(30, 12); i++ {
		// Operational test distribution: traffic drifts from the default
		// profile along one attribute at a time (the paper's evaluation
		// varies deployments around the default, not uniformly over the
		// whole attribute cube).
		attr := traffic.Attribute(rng.Intn(int(traffic.NumAttributes)))
		lo, hi := attr.Bounds()
		prof := traffic.Default.With(attr, rng.Range(lo, hi))
		w, err := l.TB.Workload(name, prof)
		if err != nil {
			return 0, err
		}
		car, wss := rng.Range(30e6, 220e6), rng.Range(1<<20, 15<<20)
		truth, err := l.TB.WithMemBench(w, car, wss)
		if err != nil {
			return 0, err
		}
		benchSolo, err := l.TB.RunSolo(nfbench.MemBench(car, wss))
		if err != nil {
			return 0, err
		}
		pred := model.Predict(prof, []core.Competitor{core.CompetitorFromMeasurement(benchSolo)})
		preds = append(preds, pred.Throughput)
		truths = append(truths, truth.Throughput)
	}
	return ml.MAPE(preds, truths), nil
}

// accStats renders MAPE / ±5% / ±10% accuracy for a prediction set.
type accStats struct {
	preds, truths []float64
}

func (a *accStats) add(pred, truth float64) {
	a.preds = append(a.preds, pred)
	a.truths = append(a.truths, truth)
}

func (a *accStats) mape() float64  { return ml.MAPE(a.preds, a.truths) }
func (a *accStats) acc5() float64  { return ml.AccWithin(a.preds, a.truths, 0.05) }
func (a *accStats) acc10() float64 { return ml.AccWithin(a.preds, a.truths, 0.10) }
