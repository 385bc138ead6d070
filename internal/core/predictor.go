package core

import (
	"iter"
	"math"

	"repro/internal/nicsim"
	"repro/internal/traffic"
)

// Competitor is a co-located NF's contention level as the online
// predictor sees it (§3): the aggregate pressure it exerts on the memory
// subsystem (its performance counters) and on each accelerator (queue
// count, per-request service time, offered request rate). Operators
// obtain these from each NF's offline solo profile.
type Competitor struct {
	Name     string
	Counters nicsim.Counters
	Accel    map[nicsim.AccelKind]AccelLoad
}

// CompetitorFromMeasurement derives a competitor description from a solo
// measurement of that NF at its traffic profile.
func CompetitorFromMeasurement(m nicsim.Measurement) Competitor {
	c := Competitor{Name: m.Name, Counters: m.Counters, Accel: map[nicsim.AccelKind]AccelLoad{}}
	for kind, st := range m.AccelStats {
		c.Accel[kind] = AccelLoad{
			Queues:     float64(st.Queues),
			ServiceSec: st.MeanServiceSec,
			OfferedReq: st.RequestRate,
		}
	}
	return c
}

// Prediction is the predictor's output: the end-to-end throughput plus
// the per-resource breakdown used for diagnosis.
type Prediction struct {
	Throughput float64
	Solo       float64
	// PerResource maps each modeled resource to the throughput the NF
	// would achieve if only that resource were contended.
	PerResource map[nicsim.Resource]float64
	// Bottleneck is the resource with the lowest per-resource throughput.
	Bottleneck nicsim.Resource
}

// Predict estimates the NF's throughput at the given traffic profile when
// co-located with the competitors: per-resource models produce individual
// throughputs, which execution-pattern composition combines (§3, §4.2).
func (m *Model) Predict(prof traffic.Profile, comps []Competitor) Prediction {
	solo := m.Solo.Predict(prof)
	pred := Prediction{
		Solo:        solo,
		PerResource: map[nicsim.Resource]float64{},
		Bottleneck:  nicsim.ResCPU,
	}
	if solo <= 0 {
		return pred
	}

	// Memory subsystem: aggregate competitor counters → black-box model.
	var agg nicsim.Counters
	for _, c := range comps {
		agg.Add(c.Counters)
	}
	memT := m.Mem.Predict(agg, prof, solo)
	pred.PerResource[nicsim.ResMemory] = memT
	drops := []float64{solo - memT}

	// Accelerators: white-box queueing model per kind, iterated in fixed
	// kind order — RTC composition sums floats over the drops, so a
	// map-order iteration would make predictions vary at the last ULP
	// between runs and break bit-identical replay.
	for _, kind := range nicsim.AccelKinds() {
		am, ok := m.Accels[kind]
		if !ok {
			continue
		}
		var loads []AccelLoad
		for _, c := range comps {
			if l, ok := c.Accel[kind]; ok && l.Queues > 0 {
				loads = append(loads, l)
			}
		}
		stage := am.PacketRate(prof.Get(am.Attr), loads)
		pred.PerResource[nicsim.AccelResource(kind)] = math.Min(stage, solo)
		drops = append(drops, math.Max(0, solo-stage))
	}

	pred.Throughput = Compose(ForPattern(m.Pattern), solo, drops)

	// Bottleneck: the resource whose individual limit is lowest, scanned
	// in fixed resource order so ties resolve identically every run.
	best := math.Inf(1)
	for res, t := range pred.Limits() {
		if t < best {
			best = t
			pred.Bottleneck = res
		}
	}
	return pred
}

// Limits yields the prediction's per-resource throughputs in the fixed
// resource order, skipping resources the model does not cover, so a
// report lists them the same way every run.
func (p Prediction) Limits() iter.Seq2[nicsim.Resource, float64] {
	return func(yield func(nicsim.Resource, float64) bool) {
		for _, res := range resourceOrder {
			if t, ok := p.PerResource[res]; ok && !yield(res, t) {
				return
			}
		}
	}
}

// resourceOrder is the fixed order every walk over a prediction's
// PerResource map takes — memory, then the accelerators in kind order —
// so float sums and tie-breaks never depend on map iteration.
var resourceOrder = func() []nicsim.Resource {
	order := []nicsim.Resource{nicsim.ResMemory}
	for _, kind := range nicsim.AccelKinds() {
		order = append(order, nicsim.AccelResource(kind))
	}
	return order
}()

// PredictWith composes with an explicit strategy (for the sum/min
// baseline comparisons of §2.2.1 and Table 4).
func (m *Model) PredictWith(c Composition, prof traffic.Profile, comps []Competitor) Prediction {
	p := m.Predict(prof, comps)
	drops := make([]float64, 0, len(p.PerResource))
	for _, t := range p.Limits() {
		drops = append(drops, math.Max(0, p.Solo-t))
	}
	p.Throughput = Compose(c, p.Solo, drops)
	return p
}
