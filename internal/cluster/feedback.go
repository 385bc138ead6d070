package cluster

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/feedback"
	"repro/internal/placement"
	"repro/internal/testbed"
)

// onlineLoop is the orchestrator's closed feedback loop: every
// enforcement probe's ground-truth measurements become drift-gate
// observations against the live model's predictions; a drift trip
// retrains a calibrated candidate through the backend, the candidate
// shadow-scores on subsequent probes, and promotion installs it — plus
// refreshed solo baselines on the calibrated hardware — into the
// class's prediction-side simulator. Everything runs synchronously on
// the event loop, so runs stay deterministic and replayable.
type onlineLoop struct {
	env   *Env
	sc    Scenario
	bname string
	ctrl  *feedback.Controller
	// cal is each key's effective calibration — the frequency factor
	// the current live model was trained at (1 until a promotion).
	// pending holds a shadowing candidate's factor until promotion
	// confirms it. The gate's ratio is measured against the *current*
	// live model, so successive retrains compound: a second trip at
	// ratio r on a model calibrated at c trains at c·r, converging on
	// the true hardware rather than re-deriving from nominal.
	cal     map[feedback.Key]float64
	pending map[feedback.Key]float64
}

// newOnlineLoop wires the loop for one prediction-guided policy run; a
// model-free policy returns nil (nothing to retrain).
func newOnlineLoop(e *Env, sc Scenario, policy Scheduler) *onlineLoop {
	strat, ok := policyStrategy(policy.Name())
	if !ok {
		return nil
	}
	l := &onlineLoop{
		env:     e,
		sc:      sc,
		bname:   strat.Backend(),
		cal:     map[feedback.Key]float64{},
		pending: map[feedback.Key]float64{},
	}
	cfg := feedback.Config{
		// Cluster-scale defaults: enforcement probes arrive far less
		// often than serving-path ingests, so the gate warms up on less
		// evidence than the serving default.
		WindowSize:        64,
		MinSamples:        12,
		MinPromoteSamples: 6,
	}
	if e.Feedback != nil {
		cfg = *e.Feedback
	}
	cfg.Synchronous = true
	cfg.Train = l.train
	cfg.Promote = l.promote
	l.ctrl = feedback.New(cfg)
	return l
}

// classCfg resolves a class name back to its hardware preset. Distinct
// core-budget overrides of one class share the preset, so any match
// would serve for training — but the walk is over sorted keys so two
// replays of one recorded run always train against the same classEnv
// (and its co-run caches), keeping retrain outcomes bit-identical.
func (l *onlineLoop) classCfg(class string) (*classEnv, error) {
	for _, key := range l.env.sortedClassKeys() {
		if key.name == class {
			return l.env.class[key], nil
		}
	}
	return nil, fmt.Errorf("cluster: no environment for class %q", class)
}

// train is the drift gate's retrain callback: the calibrated retrain
// (feedback.TrainCalibrated) against the class's hardware preset. The
// gate's ratio is relative to the current live model, so it compounds
// with that model's own calibration; the factor actually trained at
// waits in pending for promotion to confirm it.
func (l *onlineLoop) train(k feedback.Key, scale float64) (backend.Model, error) {
	ce, err := l.classCfg(k.HW)
	if err != nil {
		return nil, err
	}
	var opts any
	if l.env.TrainOptions != nil {
		opts = l.env.TrainOptions(k.Backend)
	}
	m, eff, err := feedback.TrainCalibrated(k, backend.TrainEnv{
		NIC:     ce.cfg,
		Seed:    l.env.seed,
		Options: opts,
	}, l.effective(k)*scale)
	if err != nil {
		return nil, err
	}
	l.pending[k] = eff
	return m, nil
}

// effective is the key's current live-model calibration factor.
func (l *onlineLoop) effective(k feedback.Key) float64 {
	if c := l.cal[k]; c > 0 {
		return c
	}
	return 1
}

// promote installs a winning candidate as the live model for every
// class environment sharing the key's class, and reseeds the promoted
// NF's solo baselines from the calibrated hardware — feasibility
// compares predicted co-run throughput against (1-SLA)·solo, so a
// recalibrated model needs recalibrated solos to express the same
// contention ratios the measurements showed.
func (l *onlineLoop) promote(k feedback.Key, m backend.Model) error {
	scale := l.pending[k]
	if scale <= 0 {
		scale = 1
	}
	l.cal[k] = scale
	for _, key := range l.env.sortedClassKeys() {
		if key.name != k.HW {
			continue
		}
		ce := l.env.class[key]
		base := ce.cfg.FreqScale
		if base <= 0 {
			base = 1
		}
		tb := testbed.New(ce.cfg.WithFrequencyScale(base*scale), l.env.seed)
		for _, prof := range l.sc.ProfilePool() {
			meas, err := tb.SoloNF(k.NF, prof)
			if err != nil {
				return err
			}
			ce.sim.SeedSolo(placement.Arrival{Name: k.NF, Profile: prof}, meas)
		}
		ce.sim.SetModel(k.Backend, k.NF, m)
	}
	return nil
}

// observe scores one enforcement probe: the NIC's ground-truth co-run
// measurements (from the possibly-shifted simulator) against the live
// model's predictions on the prediction-side class simulator, one
// observation per resident. An active shadow candidate predicts the
// same scenarios — its output is scored, never used for any decision.
func (l *onlineLoop) observe(gt *placement.Simulator, n *NIC) error {
	if len(n.Tenants) == 0 {
		return nil
	}
	ce, ok := l.env.class[n.key]
	if !ok {
		return fmt.Errorf("cluster: NIC %d has unresolved class %q", n.ID, n.Class)
	}
	residents := n.arrivals()
	names := make([]string, len(residents))
	for i, a := range residents {
		names[i] = a.Name
	}
	// First placements onto empty NICs never consult a model, so the
	// class set may not hold one yet for these NFs.
	if err := l.env.ensureModels(ce, placement.PredictionAware(l.bname), names); err != nil {
		return err
	}
	meas, ordered, err := gt.CoRun(residents)
	if err != nil {
		return err
	}
	for i, a := range ordered {
		others := make([]placement.Arrival, 0, len(ordered)-1)
		others = append(others, ordered[:i]...)
		others = append(others, ordered[i+1:]...)
		model, err := ce.sim.Model(l.bname, a.Name)
		if err != nil {
			return err
		}
		live, err := ce.sim.PredictWith(l.bname, model, a, others)
		if err != nil {
			return err
		}
		o := feedback.Observation{
			Key:      feedback.Key{NF: a.Name, HW: n.Class, Backend: l.bname},
			Source:   fmt.Sprintf("nic-%d", n.ID),
			Measured: meas[i].Throughput,
			LivePred: live,
		}
		if sm, ok := l.ctrl.ShadowModel(o.Key); ok {
			if sp, serr := ce.sim.PredictWith(l.bname, sm, a, others); serr == nil && sp > 0 {
				o.ShadowPred = sp
				o.HasShadow = true
			}
		}
		l.ctrl.Observe(o)
	}
	return nil
}
