package core

import (
	"fmt"

	"repro/internal/ml"
	"repro/internal/nicsim"
	"repro/internal/traffic"
)

// MemModel is the black-box memory-subsystem contention model (§4.1.2):
// a gradient-boosting regressor over the competitors' seven performance
// counters (Table 11). The traffic-aware variant (§5.1.2) appends the
// target's traffic-attribute vector (flows, packet size, MTBR) to the
// feature vector.
//
// The regression target is the *sensitivity ratio* — contended throughput
// over solo throughput at the same profile — so the model learns the
// contention response separately from the profile-dependent baseline the
// solo model provides. This is the sensitivity-curve view SLOMO
// introduced, extended with traffic features.
type MemModel struct {
	gbr          *ml.GBR
	trafficAware bool
}

// memFeatures builds the model input from the competitors' aggregate
// counters and, for traffic-aware models, the target's traffic profile.
func memFeatures(comp nicsim.Counters, prof traffic.Profile, trafficAware bool) []float64 {
	f := comp.Vector()
	if trafficAware {
		f = append(f, prof.Vector()...)
	}
	return f
}

// MemSample is one training observation: the target's throughput under a
// given competitor contention level and traffic profile, with the solo
// throughput at the same profile as the normalization baseline.
type MemSample struct {
	Competitors    nicsim.Counters
	Profile        traffic.Profile
	Throughput     float64
	SoloThroughput float64
}

// FitMemModel trains the GBR on the samples. trafficAware selects the
// augmented feature vector.
func FitMemModel(samples []MemSample, trafficAware bool, cfg ml.GBRConfig) (*MemModel, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: memory model fit with no samples")
	}
	var d ml.Dataset
	for _, s := range samples {
		if s.SoloThroughput <= 0 {
			return nil, fmt.Errorf("core: memory sample without solo baseline")
		}
		d.Add(memFeatures(s.Competitors, s.Profile, trafficAware), s.Throughput/s.SoloThroughput)
	}
	g, err := ml.FitGBR(d.X, d.Y, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: memory model: %w", err)
	}
	return &MemModel{gbr: g, trafficAware: trafficAware}, nil
}

// PredictRatio returns the modeled sensitivity ratio (contended over solo
// throughput) under the given competitor counters and traffic profile,
// clamped to [0, 1].
func (m *MemModel) PredictRatio(comp nicsim.Counters, prof traffic.Profile) float64 {
	y := m.gbr.Predict(memFeatures(comp, prof, m.trafficAware))
	if y < 0 {
		return 0
	}
	if y > 1 {
		return 1
	}
	return y
}

// Predict returns the target's throughput under memory contention alone,
// given the solo throughput at the profile.
func (m *MemModel) Predict(comp nicsim.Counters, prof traffic.Profile, solo float64) float64 {
	return solo * m.PredictRatio(comp, prof)
}

// SoloModel predicts an NF's uncontended throughput as a function of its
// traffic profile — the T_solo term of the composition equations. It is a
// GBR over the traffic-attribute vector.
type SoloModel struct {
	gbr *ml.GBR
}

// SoloSample is one (profile, solo throughput) observation.
type SoloSample struct {
	Profile    traffic.Profile
	Throughput float64
}

// FitSoloModel trains the solo-throughput model.
func FitSoloModel(samples []SoloSample, cfg ml.GBRConfig) (*SoloModel, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: solo model fit with no samples")
	}
	var d ml.Dataset
	for _, s := range samples {
		d.Add(s.Profile.Vector(), s.Throughput)
	}
	g, err := ml.FitGBR(d.X, d.Y, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: solo model: %w", err)
	}
	return &SoloModel{gbr: g}, nil
}

// Predict returns the modeled solo throughput at the profile.
func (m *SoloModel) Predict(prof traffic.Profile) float64 {
	y := m.gbr.Predict(prof.Vector())
	if y < 0 {
		return 0
	}
	return y
}
