package serve

import (
	"context"
	"fmt"
	"math"

	"repro/internal/backend"
	"repro/internal/feedback"
	"repro/internal/traffic"
)

// IngestMeasurement is one ground-truth throughput report: the scenario
// it was measured under and the observed co-located throughput.
type IngestMeasurement struct {
	NF          string
	HW          string
	Backend     string
	Profile     ProfileSpec
	Competitors []CompetitorSpec
	MeasuredPPS float64
	Source      string
}

// IngestResult summarizes one ingest batch: how many measurements
// entered the feedback windows and how many were recorded under a
// quarantined source.
type IngestResult struct {
	Accepted    int `json:"accepted"`
	Quarantined int `json:"quarantined"`
}

// Ingest feeds ground-truth measurements into the online-feedback
// loop. Each measurement is paired with the live model's prediction
// for its scenario (through the shared predict cache, so repeated
// scenarios cost a lookup) and, when a shadow candidate is active for
// the key, the candidate's prediction — that is how candidates
// accumulate the ground-truth score that decides promotion. A
// malformed measurement fails the whole batch up front; ingestion is
// idempotent in aggregate terms (windows are bounded rings, a repeated
// batch just re-observes), so clients may retry freely.
func (s *Service) Ingest(ctx context.Context, items []IngestMeasurement) (IngestResult, error) {
	s.ingests.Add(1)
	for i, it := range items {
		if _, err := s.validateScenarioOn(it.HW, it.NF, it.Profile, it.Competitors, it.Backend); err != nil {
			s.errors.Add(1)
			return IngestResult{}, fmt.Errorf("measurements[%d]: %w", i, err)
		}
		if !(it.MeasuredPPS > 0) || math.IsInf(it.MeasuredPPS, 0) {
			s.errors.Add(1)
			return IngestResult{}, badRequestf("measurements[%d]: measured_pps must be positive and finite", i)
		}
	}
	return withSlot(ctx, s, &s.computeSlots, func() (IngestResult, error) {
		var res IngestResult
		for _, it := range items {
			backendName, _ := ParseBackend(it.Backend)
			prof := it.Profile.Profile()
			comps := canonSpecs(it.Competitors)
			live, err := s.predictCached(backendName, it.HW, it.NF, prof, comps)
			if err != nil {
				return IngestResult{}, err
			}
			o := feedback.Observation{
				Key:      feedback.Key{NF: it.NF, HW: it.HW, Backend: string(backendName)},
				Scenario: scenarioKey(it.NF, prof, comps),
				Source:   it.Source,
				Measured: it.MeasuredPPS,
				LivePred: live.PredictedPPS,
			}
			if sm, ok := s.fb.ShadowModel(o.Key); ok {
				if sp, serr := s.shadowPredict(backendName, it.HW, it.NF, prof, comps, sm); serr == nil {
					o.ShadowPred = sp
					o.HasShadow = true
				}
			}
			r := s.fb.Observe(o)
			switch {
			case r.Quarantined:
				res.Quarantined++
			case r.Accepted:
				res.Accepted++
			}
		}
		return res, nil
	})
}

// shadowPredict answers one scenario with a specific (candidate)
// model instead of the registry's live one.
func (s *Service) shadowPredict(backendName Backend, hw, name string, prof traffic.Profile, specs []CompetitorSpec, m backend.Model) (float64, error) {
	b, ok := backend.Get(string(backendName))
	if !ok {
		return 0, badRequestf("unknown backend %q", backendName)
	}
	sc, err := s.scenarioFor(hw, name, prof, specs)
	if err != nil {
		return 0, err
	}
	pred, err := b.Predict(m, sc)
	if err != nil {
		return 0, err
	}
	return pred.PredictedPPS, nil
}

// feedbackTrain is the controller's default Train callback: the
// calibrated retrain (feedback.TrainCalibrated) against the key's NIC
// preset with the registry's training configuration.
func (s *Service) feedbackTrain(k feedback.Key, scale float64) (backend.Model, error) {
	nic, err := presetFor(k.HW)
	if err != nil {
		return nil, err
	}
	return feedback.TrainCalibrated(k, backend.TrainEnv{
		NIC:     nic,
		Seed:    s.cfg.Registry.Seed,
		Options: s.cfg.Registry.trainOptions(k.Backend),
	}, scale)
}

// feedbackPromote is the controller's default Promote callback: the
// zero-downtime model swap. The registry persists the candidate and
// replaces the memoized model atomically (no request ever sees an
// empty slot), the response cache drops exactly the entries computed
// with the retired model, and the promote hook — when the service runs
// behind a gateway — fans the reload out to sibling replicas and
// evicts the gateway's edge cache for the NF.
func (s *Service) feedbackPromote(k feedback.Key, m backend.Model, _ float64) error {
	if err := s.reg.Install(k.Backend, k.HW, k.NF, m); err != nil {
		return err
	}
	s.cache.EvictMatching(func(key string) bool {
		return reloadAffects(key, k.Backend, k.NF)
	})
	s.promoteMu.Lock()
	hook := s.promoteHook
	s.promoteMu.Unlock()
	if hook != nil {
		hook(k.Backend, k.HW, k.NF)
	}
	return nil
}

// SetPromoteHook registers a function observing every feedback-driven
// promotion, after the local model swap and cache eviction. The
// gateway uses it for fleet-wide reload fan-out.
func (s *Service) SetPromoteHook(hook func(backendName, hw, nf string)) {
	s.promoteMu.Lock()
	s.promoteHook = hook
	s.promoteMu.Unlock()
}

// Feedback exposes the service's online-feedback controller (stats,
// shadow inspection).
func (s *Service) Feedback() *feedback.Controller { return s.fb }
