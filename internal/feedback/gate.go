package feedback

import (
	"math"
	"sort"
)

// Gate decisions, in the order the gate checks them. Only Drift ever
// starts a retrain; Hold is the gate refusing to act on a signal it
// cannot trust.
const (
	// DecisionInvalid: the observation was malformed (non-positive or
	// non-finite measurement/prediction) and was discarded.
	DecisionInvalid = "invalid"
	// DecisionWarmup: the window is below the minimum sample count —
	// no decision yet.
	DecisionWarmup = "warmup"
	// DecisionOK: the trusted consensus agrees with the live model.
	DecisionOK = "ok"
	// DecisionHold: the signal is untrustworthy — too few trusted
	// samples survive filtering, or the trusted set is mutually
	// inconsistent. The gate neither trips nor clears.
	DecisionHold = "hold"
	// DecisionDrift: a self-consistent trusted majority disagrees with
	// the live model — genuine shift; retraining is warranted.
	DecisionDrift = "drift"
)

const (
	// minSourceSamples is the floor below which a source's outlier rate
	// is not judged — two unlucky samples must not quarantine a reporter.
	minSourceSamples = 3
	// driftThreshold trips retraining when the trusted median
	// measured/predicted ratio deviates from 1 by more than this.
	driftThreshold = 0.15
	// outlierDev marks a sample an outlier when its relative deviation
	// from the window median exceeds this.
	outlierDev = 0.30
	// sourceOutlierFrac quarantines a source when more than this
	// fraction of its windowed samples are outliers.
	sourceOutlierFrac = 0.5
	// minTrustedFrac holds the gate when fewer than this fraction of the
	// window survives outlier and quarantine filtering.
	minTrustedFrac = 0.5
)

// gateResult is one evaluation of a key's window.
type gateResult struct {
	decision string
	// scale is the trusted median measured/predicted ratio: how far
	// off the live model is. Retraining multiplies it into the live
	// model's own calibration factor. 1 when no trusted consensus
	// exists.
	scale float64
	// quarantined is the set of sources whose windowed samples are
	// mostly outliers against the window median; nil when none are.
	quarantined map[string]bool
}

// evaluate runs the dDCA-style drift-vs-fault gate over one window.
//
// Data signal: the per-sample ratio q = measured/predicted; R = the
// window median. Diagnostic signals: per-sample outlierness (relative
// deviation from R beyond outlierDev), per-source outlier rate (a
// source mostly emitting outliers is quarantined — the empty source is
// exempt, it means "untracked"), trusted-set size and trusted-set
// dispersion (relative MAD). The decision fuses them: distrust the
// window (hold) before distrusting the model (drift).
func evaluate(cfg Config, all []sample) gateResult {
	if len(all) < cfg.MinSamples {
		return gateResult{decision: DecisionWarmup, scale: 1}
	}
	ratios := make([]float64, len(all))
	for i, s := range all {
		ratios[i] = s.ratio
	}
	med := median(ratios)

	outlier := make([]bool, len(all))
	type srcStat struct{ n, out int }
	bySrc := map[string]*srcStat{}
	for i, s := range all {
		outlier[i] = math.Abs(s.ratio-med)/med > outlierDev
		if s.source == "" {
			continue
		}
		st := bySrc[s.source]
		if st == nil {
			st = &srcStat{}
			bySrc[s.source] = st
		}
		st.n++
		if outlier[i] {
			st.out++
		}
	}
	var quarantined map[string]bool
	for src, st := range bySrc {
		if st.n >= minSourceSamples && float64(st.out) > sourceOutlierFrac*float64(st.n) {
			if quarantined == nil {
				quarantined = map[string]bool{}
			}
			quarantined[src] = true
		}
	}

	trusted := make([]float64, 0, len(all))
	for i, s := range all {
		if outlier[i] || quarantined[s.source] {
			continue
		}
		trusted = append(trusted, s.ratio)
	}
	res := gateResult{quarantined: quarantined, scale: 1}
	if float64(len(trusted)) < minTrustedFrac*float64(len(all)) {
		res.decision = DecisionHold
		return res
	}
	rt := median(trusted)
	devs := make([]float64, len(trusted))
	for i, q := range trusted {
		devs[i] = math.Abs(q - rt)
	}
	if median(devs)/rt > cfg.ConsistencyMax {
		res.decision = DecisionHold
		return res
	}
	res.scale = rt
	if math.Abs(rt-1) > driftThreshold {
		res.decision = DecisionDrift
	} else {
		res.decision = DecisionOK
	}
	return res
}

// median sorts xs in place and returns its median. xs must be
// non-empty (the gate never evaluates an empty window past warmup).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
