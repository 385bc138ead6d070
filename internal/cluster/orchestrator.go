package cluster

import (
	"context"
	"sort"
	"time"

	"repro/internal/nf"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// PolicyResult summarizes one policy's run over a scenario.
type PolicyResult struct {
	Policy   string `json:"policy"`
	Arrivals int    `json:"arrivals"`
	// Admitted counts placements that stuck: chosen by the policy and
	// clean under ground-truth SLA enforcement at placement time.
	Admitted int `json:"admitted"`
	// Rejected counts arrivals the policy declined (no capacity, or no
	// predicted-feasible NIC for prediction-guided policies).
	Rejected int `json:"rejected"`
	// Rollbacks counts placements undone by enforcement: the policy
	// placed, ground truth immediately breached an SLA, the newcomer was
	// evicted.
	Rollbacks int `json:"rollbacks"`
	// Migrations counts tenants moved to another NIC after drift pushed
	// their NIC out of feasibility; Evictions counts drifted tenants no
	// NIC could host within SLA.
	Migrations int `json:"migrations"`
	Evictions  int `json:"evictions"`
	Departures int `json:"departures"`
	// Violations is the total count of NF-SLA breaches observed by
	// ground-truth checks (at placements, drifts and migrations).
	Violations int `json:"violations"`
	// PeakTenants is the high-water fleet occupancy; AvgUtilization the
	// time-weighted fraction of fleet cores allocated.
	PeakTenants    int     `json:"peak_tenants"`
	AvgUtilization float64 `json:"avg_utilization"`
	// Retrains and Promotions count the online feedback loop's actions
	// (zero unless the scenario set Online and the policy is
	// prediction-guided): candidate models trained after a drift-gate
	// trip, and candidates that beat the live model in shadow and were
	// installed.
	Retrains   int `json:"retrains,omitempty"`
	Promotions int `json:"promotions,omitempty"`
	// DecisionP50/P99 are wall-clock scheduling-decision latencies. They
	// are the only fields that vary run to run; everything else is a
	// deterministic function of (env state, stream, policy).
	DecisionP50 time.Duration `json:"decision_p50_ns"`
	DecisionP99 time.Duration `json:"decision_p99_ns"`
}

// orchestrator replays one tenant stream against one policy on a
// discrete event loop.
type orchestrator struct {
	ctx    context.Context
	env    *Env
	sc     Scenario
	policy Scheduler
	fleet  *Fleet
	engine *sim.Engine

	// shifted flips at the scenario's shift time: from then on
	// enforcement consults the frequency-scaled ground-truth
	// environments instead of the nominal ones.
	shifted bool
	// online, when the scenario closes the loop, scores every
	// enforcement probe through the drift gate and drives
	// retrain/shadow/promote; nil otherwise.
	online *onlineLoop

	res       PolicyResult
	decisions []time.Duration
	// decisionHist is the policy's cluster_decision_seconds series,
	// resolved once per run; nil without a registry.
	decisionHist *obs.Histogram

	// Utilization integral: allocated core-seconds accumulated at every
	// state transition.
	lastT       float64
	coreSeconds float64

	err error
}

// newOrchestrator wires a run; RunPolicyStream drives it.
func newOrchestrator(ctx context.Context, env *Env, sc Scenario, policy Scheduler) (*orchestrator, error) {
	fleet, err := env.ScenarioFleet(sc)
	if err != nil {
		return nil, err
	}
	o := &orchestrator{
		ctx:    ctx,
		env:    env,
		sc:     sc,
		policy: policy,
		fleet:  fleet,
		engine: sim.NewEngine(),
		res:    PolicyResult{Policy: policy.Name()},
	}
	if env.obsReg != nil {
		o.decisionHist = env.obsReg.Histogram("cluster_decision_seconds", nil, "policy", policy.Name())
	}
	if sc.Online {
		o.online = newOnlineLoop(env, sc, policy)
	}
	return o, nil
}

// halted reports whether the run should stop: a prior error, or the
// caller's context expired (an abandoned HTTP request must not keep a
// fleet simulation running to completion). Event handlers call it first.
func (o *orchestrator) halted() bool {
	if o.err != nil {
		return true
	}
	if err := o.ctx.Err(); err != nil {
		o.err = err
		return true
	}
	return false
}

// RunPolicyStream replays an explicit tenant stream — generated by the
// scenario or decoded from a recorded trace — against one policy:
// arrivals are placed (or rejected), placements are enforced against
// simulator ground truth, admitted tenants live out their pre-drawn
// lifetimes, and drift triggers migration or eviction. The scenario
// supplies the fleet shape; the stream supplies every workload event, so
// replaying a recorded stream reproduces the run event for event. The
// context cancels the run between events.
func (e *Env) RunPolicyStream(ctx context.Context, sc Scenario, stream []TenantSpec, policy Scheduler) (PolicyResult, error) {
	sc = sc.WithDefaults()
	if err := sc.Validate(); err != nil {
		return PolicyResult{}, err
	}
	o, err := newOrchestrator(ctx, e, sc, policy)
	if err != nil {
		return PolicyResult{}, err
	}
	if o.online != nil {
		defer o.online.ctrl.Close()
	}
	for _, spec := range stream {
		spec := spec
		o.engine.At(spec.At, func() { o.arrive(spec) })
	}
	if sc.ShiftAt > 0 {
		o.engine.At(sc.ShiftAt, func() { o.shifted = true })
	}
	o.engine.Run()
	if o.err != nil {
		return PolicyResult{}, o.err
	}
	o.tick()
	if o.online != nil {
		st := o.online.ctrl.Stats()
		o.res.Retrains = int(st.Retrains)
		o.res.Promotions = int(st.Promotions)
	}
	if total := float64(o.fleet.TotalCores()) * o.engine.Now(); total > 0 {
		o.res.AvgUtilization = o.coreSeconds / total
	}
	o.res.DecisionP50 = latencyPercentile(o.decisions, 0.50)
	o.res.DecisionP99 = latencyPercentile(o.decisions, 0.99)
	return o.res, nil
}

// tick folds the interval since the last state change into the
// core-seconds integral.
func (o *orchestrator) tick() {
	now := o.engine.Now()
	o.coreSeconds += float64(len(o.fleet.home)*nf.NFCores) * (now - o.lastT)
	o.lastT = now
}

// decisionClock is the stopwatch decide samples around each policy
// call. It is the package's one sanctioned wall-clock read: decision
// latency is measurement *about* the run, never state *of* the run — it
// feeds PolicyResult.DecisionP50/P99 and the cluster_decision_seconds
// histogram only, so host timing can never make a replay diverge
// (TestDecisionTimingIsReportingOnly and the golden-trace gate pin
// this). Isolated in a var so the scheduling logic below stays free of
// direct clock reads.
//
//yalalint:ignore wallclock decision-latency stopwatch is reporting-only and never enters replayed state
var decisionClock = time.Now

// decide times one scheduling decision — the latency the comparison
// reports.
func (o *orchestrator) decide(a placement.Arrival) (int, error) {
	t0 := decisionClock()
	idx, err := o.policy.Choose(o.fleet, a)
	d := decisionClock().Sub(t0)
	o.decisions = append(o.decisions, d)
	if o.decisionHist != nil {
		o.decisionHist.Observe(d.Seconds())
	}
	return idx, err
}

// groundTruth returns the simulator enforcement measures NIC n against:
// the class's nominal environment, or — after the scenario's shift time
// — its frequency-scaled one.
func (o *orchestrator) groundTruth(n *NIC) *placement.Simulator {
	if o.shifted {
		return o.env.shiftedEnv(n.key, o.sc.ShiftScale).sim
	}
	return o.env.simFor(n)
}

// enforce ground-truth-checks NIC i on its class simulator, counting
// breaches. Each class's placement simulator caches co-runs by resident
// multiset, so repeated checks of an unchanged NIC are lookups. With
// the loop closed, the same probe's measurements feed the drift gate.
func (o *orchestrator) enforce(i int) (int, error) {
	n := o.fleet.NICs[i]
	gt := o.groundTruth(n)
	breaches, err := gt.Violations(n.arrivals())
	if err != nil {
		return 0, err
	}
	o.res.Violations += breaches
	if o.online != nil {
		if err := o.online.observe(gt, n); err != nil {
			return 0, err
		}
	}
	return breaches, nil
}

// arrive handles one arrival event: decide, place, enforce, and — if the
// placement sticks — schedule the tenant's pre-drawn departure and
// optional drift.
func (o *orchestrator) arrive(spec TenantSpec) {
	if o.halted() {
		return
	}
	o.res.Arrivals++
	o.tick()
	idx, err := o.decide(spec.Arrival)
	if err != nil {
		o.err = err
		return
	}
	if idx < 0 {
		o.res.Rejected++
		return
	}
	o.fleet.place(idx, spec.Tenant)
	breaches, err := o.enforce(idx)
	if err != nil {
		o.err = err
		return
	}
	if breaches > 0 {
		// SLA enforcement: a placement that breaches ground truth is
		// rolled back — the blind policies pay here, the guided ones
		// only on prediction error.
		o.fleet.remove(idx, spec.ID)
		o.res.Rollbacks++
		return
	}
	o.res.Admitted++
	if n := len(o.fleet.home); n > o.res.PeakTenants {
		o.res.PeakTenants = n
	}
	o.engine.After(spec.Lifetime, func() { o.depart(spec.ID) })
	if spec.DriftAt > 0 {
		prof := spec.DriftProfile
		o.engine.After(spec.DriftAt, func() { o.drift(spec.ID, prof) })
	}
}

// depart removes a tenant at end of life, if enforcement has not already
// evicted it.
func (o *orchestrator) depart(id int) {
	if o.halted() {
		return
	}
	idx := o.fleet.locate(id)
	if idx < 0 {
		return
	}
	o.tick()
	o.fleet.remove(idx, id)
	o.res.Departures++
}

// drift mutates a tenant's traffic profile in place and re-enforces its
// NIC. A breach triggers the rebalance path: ask the policy for a new
// home; a move that holds is a migration, anything else evicts the
// drifted tenant.
func (o *orchestrator) drift(id int, prof traffic.Profile) {
	if o.halted() {
		return
	}
	idx := o.fleet.locate(id)
	if idx < 0 {
		return
	}
	o.tick()
	t, _ := o.fleet.remove(idx, id)
	t.Profile = prof
	o.fleet.place(idx, t)
	breaches, err := o.enforce(idx)
	if err != nil {
		o.err = err
		return
	}
	if breaches == 0 {
		return
	}
	// Drift pushed the NIC out of feasibility; try to rehome the
	// drifted tenant.
	o.fleet.remove(idx, id)
	target, err := o.decide(t.Arrival)
	if err != nil {
		o.err = err
		return
	}
	if target < 0 || target == idx {
		o.res.Evictions++
		return
	}
	o.fleet.place(target, t)
	breaches, err = o.enforce(target)
	if err != nil {
		o.err = err
		return
	}
	if breaches > 0 {
		o.fleet.remove(target, id)
		o.res.Evictions++
		return
	}
	o.res.Migrations++
}

// latencyPercentile reads the p-quantile of the (unsorted) samples.
func latencyPercentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[int(p*float64(len(sorted)-1))]
}
