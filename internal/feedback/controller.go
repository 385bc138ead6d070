package feedback

import (
	"errors"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/backend"
)

// Key identifies one served model: NF name, hardware key ("" = the
// default preset), backend name.
type Key struct {
	NF      string
	HW      string
	Backend string
}

// Observation is one ground-truth throughput measurement paired with
// what the live (and, when active, shadow) model predicted for the
// same scenario.
type Observation struct {
	Key Key
	// Scenario is an opaque identifier for the workload the measurement
	// was taken under (bookkeeping only; the gate does not use it).
	Scenario string
	// Source identifies the reporting agent — a tenant, probe, or
	// replica. Per-source quarantine keys off it; the empty source is
	// "untracked" and exempt (single-reporter deployments).
	Source string
	// Measured is the observed co-located throughput (pps); positive.
	Measured float64
	// LivePred is the live model's prediction for the same scenario;
	// positive.
	LivePred float64
	// ShadowPred is the shadow candidate's prediction when one is
	// active (HasShadow); the controller uses it to score the candidate
	// against ground truth.
	ShadowPred float64
	HasShadow  bool
}

// Result reports what the controller did with one observation.
type Result struct {
	// Accepted: the sample entered the key's window and, when a shadow
	// candidate is active, its scoring.
	Accepted bool
	// Quarantined: the sample's source is currently quarantined for
	// this key; the sample was recorded but excluded from the trusted
	// set and from shadow scoring.
	Quarantined bool
	// Decision is the gate's decision after this sample: one of the
	// Decision* constants.
	Decision string
}

// Config tunes a Controller. The zero value of every numeric field
// selects a sensible default; Train and Promote wire the controller to
// the owning layer's training and promotion paths.
type Config struct {
	// WindowSize bounds each key's sample ring (default 256).
	WindowSize int
	// MinSamples is the warmup floor: no gate decision below this many
	// windowed samples (default 24).
	MinSamples int
	// ConsistencyMax holds the gate when the trusted set's relative
	// median absolute deviation exceeds this — mutually inconsistent
	// input never triggers retraining (default 0.10).
	ConsistencyMax float64
	// MinPromoteSamples is the minimum number of ground-truth-bearing
	// shadow comparisons before a candidate may be promoted (default 12).
	MinPromoteSamples int
	// Synchronous trains inline in Observe instead of on a background
	// goroutine — the deterministic mode simulations and tests use.
	Synchronous bool
	// Train builds a candidate model for a drifted key. scale is the
	// candidate's absolute frequency factor against nominal hardware:
	// the live model's factor (1 until a promotion) times the gate's
	// trusted median measured/predicted ratio, clamped to
	// [0.25, 4]. Called outside the controller's lock.
	Train func(k Key, scale float64) (backend.Model, error)
	// Promote installs a winning candidate as the live model; scale is
	// the factor the candidate was trained at, which becomes the key's
	// live factor. Called outside the controller's lock. A nil Promote
	// disables promotion: candidates shadow until aborted.
	Promote func(k Key, m backend.Model, scale float64) error
}

func (c Config) withDefaults() Config {
	if c.WindowSize <= 0 {
		c.WindowSize = 256
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 24
	}
	if c.ConsistencyMax <= 0 {
		c.ConsistencyMax = 0.10
	}
	if c.MinPromoteSamples <= 0 {
		c.MinPromoteSamples = 12
	}
	return c
}

// Per-key lifecycle states.
const (
	stateIdle = iota
	stateTraining
	stateShadowing
	statePromoting
)

// Calibration bounds for feedback-driven retraining: the factor a
// candidate trains at is clamped so one pathological window cannot
// train against absurd hardware.
const (
	minCalibrationScale = 0.25
	maxCalibrationScale = 4.0
)

// keyState is one key's window, quarantine set, calibration, and
// candidate lifecycle.
type keyState struct {
	win *window
	// quarantined is the latest gate evaluation's quarantine set.
	quarantined map[string]bool
	// factor is the live model's frequency factor against nominal
	// hardware: 1 until a promotion installs a calibrated candidate.
	// The gate's ratio is measured against the live model, so a second
	// trip at ratio r trains at factor·r — retrains compound toward the
	// true hardware rather than re-deriving from nominal.
	factor float64
	// epoch counts resets; a retrain that started in an earlier epoch
	// trained for a model that is gone and is discarded when it lands.
	epoch  uint64
	state  int
	shadow backend.Model
	// shadowScale is the factor the shadow candidate was trained at.
	shadowScale float64
	// Shadow scoring: cumulative relative error of the live and shadow
	// models over ground-truth-bearing observations since the candidate
	// appeared.
	liveErrSum   float64
	shadowErrSum float64
	shadowN      int
}

// trainJob is one queued retrain request.
type trainJob struct {
	key   Key
	scale float64
	epoch uint64
}

// Stats is the controller's counter snapshot — the source for the
// yala_drift_* metric series and the "drift" block of /v2/stats.
type Stats struct {
	// Observations counts valid observations ingested.
	Observations uint64 `json:"observations"`
	// Quarantined counts samples recorded while their source was
	// quarantined.
	Quarantined uint64 `json:"quarantined"`
	// Holds and Trips count gate decisions (per observation, once the
	// window is warm).
	Holds uint64 `json:"holds"`
	Trips uint64 `json:"trips"`
	// Retrains counts candidate models trained; TrainFailures counts
	// training or promotion callbacks that errored.
	Retrains      uint64 `json:"retrains"`
	TrainFailures uint64 `json:"train_failures,omitempty"`
	// ShadowSamples counts ground-truth-bearing observations scored
	// against a shadow candidate; ShadowCompares counts live-traffic
	// predictions where both models ran (no ground truth).
	ShadowSamples  uint64 `json:"shadow_samples"`
	ShadowCompares uint64 `json:"shadow_compares"`
	// ShadowAborts counts candidates discarded for failing to beat the
	// live model; Promotions counts candidates installed.
	ShadowAborts uint64 `json:"shadow_aborts,omitempty"`
	Promotions   uint64 `json:"promotions"`
}

// Controller is the online-feedback engine: per-key windows, the drift
// gate, the background retrainer, shadow scoring, and promotion. Safe
// for concurrent use.
type Controller struct {
	cfg Config

	mu   sync.Mutex
	keys map[Key]*keyState

	observations   atomic.Uint64
	quarantined    atomic.Uint64
	holds          atomic.Uint64
	trips          atomic.Uint64
	retrains       atomic.Uint64
	trainFailures  atomic.Uint64
	shadowSamples  atomic.Uint64
	shadowCompares atomic.Uint64
	shadowAborts   atomic.Uint64
	promotions     atomic.Uint64

	trainCh   chan trainJob
	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New returns a controller. Unless cfg.Synchronous, a single
// background trainer goroutine serves retrain requests (bounded queue;
// a full queue drops the request and a later drift decision retries).
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		cfg:  cfg,
		keys: map[Key]*keyState{},
		stop: make(chan struct{}),
	}
	if !cfg.Synchronous && cfg.Train != nil {
		c.trainCh = make(chan trainJob, 16)
		c.wg.Add(1)
		go c.trainer()
	}
	return c
}

// Close stops the background trainer and waits for an in-flight
// training to finish. Idempotent.
func (c *Controller) Close() {
	c.closeOnce.Do(func() {
		close(c.stop)
		c.wg.Wait()
	})
}

func (c *Controller) keyStateLocked(k Key) *keyState {
	ks := c.keys[k]
	if ks == nil {
		ks = &keyState{win: newWindow(c.cfg.WindowSize), factor: 1}
		c.keys[k] = ks
	}
	return ks
}

// relErr is the relative prediction error against ground truth.
func relErr(measured, pred float64) float64 {
	return math.Abs(measured-pred) / measured
}

// Observe ingests one measurement: records it in the key's window,
// re-evaluates the drift gate, scores an active shadow candidate, and
// — on a drift decision with the key idle — starts a retrain. Training
// and promotion callbacks run outside the controller's lock.
func (c *Controller) Observe(o Observation) Result {
	if !(o.Measured > 0) || !(o.LivePred > 0) ||
		math.IsInf(o.Measured, 0) || math.IsInf(o.LivePred, 0) {
		return Result{Decision: DecisionInvalid}
	}
	c.observations.Add(1)

	c.mu.Lock()
	ks := c.keyStateLocked(o.Key)
	ks.win.push(sample{ratio: o.Measured / o.LivePred, source: o.Source})
	g := evaluate(c.cfg, ks.win.samples())
	ks.quarantined = g.quarantined

	res := Result{Decision: g.decision}
	if o.Source != "" && g.quarantined[o.Source] {
		res.Quarantined = true
		c.quarantined.Add(1)
	} else {
		res.Accepted = true
	}

	var (
		promoteModel backend.Model
		promoteScale float64
		doTrain      bool
		trainScale   float64
	)
	epoch := ks.epoch
	if res.Accepted && ks.state == stateShadowing && o.HasShadow && o.ShadowPred > 0 {
		ks.liveErrSum += relErr(o.Measured, o.LivePred)
		ks.shadowErrSum += relErr(o.Measured, o.ShadowPred)
		ks.shadowN++
		c.shadowSamples.Add(1)
		switch {
		case ks.shadowN >= c.cfg.MinPromoteSamples && ks.shadowErrSum < ks.liveErrSum && c.cfg.Promote != nil:
			ks.state = statePromoting
			promoteModel, promoteScale = ks.shadow, ks.shadowScale
		case ks.shadowN >= 4*c.cfg.MinPromoteSamples:
			// The candidate had four times the required evidence and
			// never beat live — discard it and rearm the gate.
			ks.state = stateIdle
			ks.shadow = nil
			c.shadowAborts.Add(1)
		}
	}
	switch g.decision {
	case DecisionHold:
		c.holds.Add(1)
	case DecisionDrift:
		c.trips.Add(1)
		if ks.state == stateIdle && c.cfg.Train != nil {
			ks.state = stateTraining
			doTrain = true
			trainScale = math.Min(math.Max(ks.factor*g.scale, minCalibrationScale), maxCalibrationScale)
		}
	}
	c.mu.Unlock()

	if promoteModel != nil {
		c.promote(o.Key, epoch, promoteModel, promoteScale)
	}
	if doTrain {
		job := trainJob{key: o.Key, scale: trainScale, epoch: epoch}
		if c.cfg.Synchronous {
			c.runTrain(job)
		} else {
			select {
			case c.trainCh <- job:
			default:
				// Queue full: drop and rearm — a later drift decision
				// re-requests.
				c.mu.Lock()
				if ks.epoch == job.epoch && ks.state == stateTraining {
					ks.state = stateIdle
				}
				c.mu.Unlock()
			}
		}
	}
	return res
}

// trainer is the background retrain loop (async mode).
func (c *Controller) trainer() {
	defer c.wg.Done()
	for {
		select {
		case job := <-c.trainCh:
			c.runTrain(job)
		case <-c.stop:
			return
		}
	}
}

// runTrain executes one retrain and transitions the key to shadowing,
// unless the key was reset while the retrain ran.
func (c *Controller) runTrain(job trainJob) {
	m, err := c.cfg.Train(job.key, job.scale)
	if err == nil && m == nil {
		err = errNilModel
	}
	c.mu.Lock()
	ks := c.keys[job.key]
	if ks.epoch == job.epoch && ks.state == stateTraining {
		if err != nil {
			c.trainFailures.Add(1)
			ks.state = stateIdle
		} else {
			c.retrains.Add(1)
			ks.state = stateShadowing
			ks.shadow = m
			ks.shadowScale = job.scale
			ks.liveErrSum, ks.shadowErrSum, ks.shadowN = 0, 0, 0
		}
	}
	c.mu.Unlock()
}

// promote installs a winning candidate, resets the key and records the
// candidate's factor as the live one — unless a Forget reset the key
// while the Promote callback ran.
func (c *Controller) promote(k Key, epoch uint64, m backend.Model, scale float64) {
	err := c.cfg.Promote(k, m, scale)
	c.mu.Lock()
	defer c.mu.Unlock()
	ks := c.keys[k]
	if ks.epoch != epoch {
		return
	}
	if err != nil {
		c.trainFailures.Add(1)
		ks.state = stateIdle
		ks.shadow = nil
		return
	}
	c.promotions.Add(1)
	c.resetLocked(ks)
	ks.factor = scale
}

// resetLocked returns a key to a fresh live model's starting point:
// the window empties (its ratios described the retired model), the
// quarantine set and any candidate are dropped, the factor returns to
// nominal, and the epoch moves on so a retrain still running for the
// retired model is discarded when it lands.
func (c *Controller) resetLocked(ks *keyState) {
	ks.win.reset()
	ks.quarantined = nil
	ks.factor = 1
	ks.epoch++
	ks.state = stateIdle
	ks.shadow = nil
}

// Forget resets every key match selects, as if its live model had just
// been loaded: serving layers call it when a reload replaces a model
// from outside the controller, because evidence and calibration about
// the retired model say nothing about its replacement. match runs
// outside the controller's lock.
func (c *Controller) Forget(match func(Key) bool) {
	c.mu.Lock()
	keys := slices.Collect(maps.Keys(c.keys))
	c.mu.Unlock()
	for _, k := range keys {
		if match(k) {
			c.mu.Lock()
			c.resetLocked(c.keys[k])
			c.mu.Unlock()
		}
	}
}

// ShadowModel returns the key's shadow candidate when one is being
// evaluated. Serving layers call this to run the candidate alongside
// the live model; the candidate's output must never be returned to
// clients.
func (c *Controller) ShadowModel(k Key) (backend.Model, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ks := c.keys[k]
	if ks == nil || ks.shadow == nil || (ks.state != stateShadowing && ks.state != statePromoting) {
		return nil, false
	}
	return ks.shadow, true
}

// RecordShadowCompare notes one live-traffic request where both models
// predicted (no ground truth — scoring happens in Observe).
func (c *Controller) RecordShadowCompare() {
	c.shadowCompares.Add(1)
}

// Stats snapshots the controller's counters.
func (c *Controller) Stats() Stats {
	return Stats{
		Observations:   c.observations.Load(),
		Quarantined:    c.quarantined.Load(),
		Holds:          c.holds.Load(),
		Trips:          c.trips.Load(),
		Retrains:       c.retrains.Load(),
		TrainFailures:  c.trainFailures.Load(),
		ShadowSamples:  c.shadowSamples.Load(),
		ShadowCompares: c.shadowCompares.Load(),
		ShadowAborts:   c.shadowAborts.Load(),
		Promotions:     c.promotions.Load(),
	}
}

// errNilModel guards against a Train callback returning (nil, nil).
var errNilModel = errors.New("feedback: Train returned a nil model")
