package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/nicsim"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/serve"
)

const fleetPolicy = "yala"

// chooseSizes are the fleet sizes of the committed Choose scaling curve.
var chooseSizes = []int{16, 256, 1024, 4096}

// expectedFleetFile is the committed seed-1 outcome of the full-size
// fleet-sched stream.
var expectedFleetFile = filepath.Join("bench", "expected", "fleet-sched.seed1.json")

// expectedFleet is what that file holds. The outcome is a function of
// the trained models, whose floating-point arithmetic differs between
// architectures, so the comparison only runs on the one recorded.
type expectedFleet struct {
	GOARCH   string               `json:"goarch"`
	NICs     int                  `json:"nics"`
	Arrivals int                  `json:"arrivals"`
	Result   cluster.PolicyResult `json:"result"`
}

// fleetSched is the scheduler regime: no sockets at all. One churn
// stream is replayed back to back against the prediction-guided policy
// on a homogeneous BlueField-2 fleet; cluster, placement and
// backend.Batch do the work. Every replay is one slice of the window and
// one more witness that the outcome is deterministic.
type fleetSched struct {
	cfg     *config
	def     workloadDef
	env     *cluster.Env
	reg     *obs.Registry
	models  *serve.ModelRegistry
	sc      cluster.Scenario
	stream  []cluster.TenantSpec
	results []cluster.PolicyResult
	// loadMS and prewarmS split boot into model loading and the
	// solo-measurement warm-up of the scenario's (NF, profile) pool.
	loadMS, prewarmS float64
}

func bootFleetSched(cfg *config, def workloadDef) (instance, error) {
	f := &fleetSched{cfg: cfg, def: def, reg: obs.NewRegistry(), models: serve.NewRegistry(cfg.registry())}
	f.sc = cluster.Scenario{NICs: cfg.FleetNICs, Arrivals: cfg.FleetArrivals, MeanIAT: 0.025,
		Seed: cfg.Seed, Profiles: cfg.FleetProfiles, DriftProb: cluster.DefaultDriftProb}.WithDefaults()
	if err := f.sc.Validate(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	for _, nf := range f.sc.NFs {
		if _, err := f.models.Model(fleetPolicy, nf); err != nil {
			return nil, err
		}
	}
	f.loadMS = float64(time.Since(t0).Nanoseconds()) / 1e6 / float64(len(f.sc.NFs))
	// The environment's simulator seed is the training seed: ground truth
	// and models describe the same hardware. Only the stream is seeded by
	// the workload seed.
	f.env = cluster.NewEnv(nicsim.BlueField2(), 1, f.models)
	f.env.SetObs(f.reg)
	t0 = time.Now()
	if err := f.env.Prewarm(context.Background(), f.sc, []string{fleetPolicy}); err != nil {
		return nil, err
	}
	f.prewarmS = time.Since(t0).Seconds()
	f.stream = f.sc.Stream()
	return f, nil
}

func (f *fleetSched) close() {}

// tracedScheduler records one span around every decision the wrapped
// policy makes.
type tracedScheduler struct {
	cluster.Scheduler
	tr *tracer
	n  int
}

func (t *tracedScheduler) Choose(fl *cluster.Fleet, a placement.Arrival) (int, error) {
	start := time.Now()
	idx, err := t.Scheduler.Choose(fl, a)
	t.tr.add("window", t.n, "cluster.choose", "", start, time.Now())
	t.n++
	return idx, err
}

// window replays the stream until dur has passed, at least twice so the
// verifier always has two outcomes to compare. An op is one arrival.
func (f *fleetSched) window(_ int, dur time.Duration, tr *tracer) (windowResult, windowStats) {
	var st windowStats
	var rates, p50s, tails []float64
	w := measured(dur, 0, func(start time.Time) ([]opRec, int, error) {
		for replay := 0; replay < 2 || time.Since(start) < dur; replay++ {
			sched, err := cluster.NewScheduler(fleetPolicy, f.env, f.sc.Seed)
			if err != nil {
				return nil, 0, err
			}
			if tr != nil {
				sched = &tracedScheduler{Scheduler: sched, tr: tr}
			}
			t0 := time.Now()
			res, err := f.env.RunPolicyStream(context.Background(), f.sc, f.stream, sched)
			wall := time.Since(t0).Seconds()
			st.Attempted += len(f.stream)
			if err != nil {
				st.Failed += len(f.stream)
				return nil, 0, err
			}
			f.results = append(f.results, res)
			row := sliceRow{Ops: res.Arrivals, Seconds: wall, OpsPerS: float64(res.Arrivals) / wall,
				P50US: micros(res.DecisionP50), TailUS: micros(res.DecisionP99)}
			st.Rows = append(st.Rows, row)
			rates, p50s, tails = append(rates, row.OpsPerS), append(p50s, row.P50US), append(tails, row.TailUS)
		}
		return nil, 0, nil
	})
	st.OpsPerS, st.P50US, st.TailUS = median(rates), median(p50s), median(tails)
	st.CPUUSPerOp = ratio(micros(w.CPU), float64(st.Attempted-st.Failed))
	st.SpreadPct = spreadPct(rates)
	// Every replay makes at least one decision per arrival, so p99 has
	// at least 1% of them beyond it.
	st.TailSamples = len(f.stream) / 100
	return w, st
}

func (f *fleetSched) counters() map[string]float64 {
	exp := scrape(f.reg)
	label := `policy="` + fleetPolicy + `"`
	c := map[string]float64{
		"slots.scanned": counterSum(exp, "cluster_slots_scanned_total", label),
		"slots.scored":  counterSum(exp, "cluster_slots_scored_total", label),
	}
	c["decision.sum"], c["decision.n"] = histTotals(exp, "cluster_decision_seconds", label)
	return c
}

func (f *fleetSched) layers(d, rows map[string]float64) {
	rows["cluster.decision_us_avg"] = 1e6 * ratio(d["decision.sum"], d["decision.n"])
	rows["cluster.slots_scanned_per_decision"] = ratio(d["slots.scanned"], d["decision.n"])
	rows["cluster.slots_scored_per_decision"] = ratio(d["slots.scored"], d["decision.n"])
	rows["cluster.us_per_scored_slot"] = 1e6 * ratio(d["decision.sum"], d["slots.scored"])
	rows["cluster.decision_share"] = ratio(d["decision.sum"], d["wall_s"])
}

func (f *fleetSched) setup(rows map[string]float64) {
	rows["backend.load_ms"] = f.loadMS
	rows["cluster.prewarm_s"] = f.prewarmS
	rows["testbed.solo_warm_s"] = f.prewarmS
}

// verify holds every replay to the first on all fields but the two
// decision latencies, checks the arrival accounting, and — for the
// full-size seed-1 stream on the recorded architecture — compares the
// outcome with the committed one.
func (f *fleetSched) verify(rows map[string]float64) []check {
	if len(f.results) < 2 {
		return []check{checkThat("replays identical", false, "only %d replays ran", len(f.results))}
	}
	first := f.results[0]
	var differ error
	for _, r := range f.results[1:] {
		if err := sameFleetOutcome(first, r); err != nil && differ == nil {
			differ = err
		}
	}
	rows["cluster.rejected"] = float64(first.Rejected)
	rows["cluster.rollbacks"] = float64(first.Rollbacks)
	rows["cluster.migrations"] = float64(first.Migrations)
	rows["cluster.peak_tenants"] = float64(first.PeakTenants)
	rows["cluster.admit_ratio"] = ratio(float64(first.Admitted), float64(first.Arrivals))
	rows["cluster.sla_violation_ratio"] = float64(first.Violations) / float64(max(first.Admitted, 1))
	checks := []check{
		checkErr(fmt.Sprintf("%d replays identical", len(f.results)), differ),
		checkErr("arrival accounting", fleetInvariant(first)),
	}
	if f.cfg.Seed == 1 && !f.cfg.Quick {
		if f.cfg.UpdateExpected {
			checks = append(checks, checkErr("seed-1 outcome recorded", f.writeExpected(first)))
		} else {
			checks = append(checks, f.checkExpected(first))
		}
	}
	return checks
}

func (f *fleetSched) writeExpected(got cluster.PolicyResult) error {
	got.DecisionP50, got.DecisionP99 = 0, 0
	data, err := json.MarshalIndent(expectedFleet{GOARCH: runtime.GOARCH, NICs: f.sc.NICs, Arrivals: f.sc.Arrivals, Result: got}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(expectedFleetFile), 0o755); err != nil {
		return err
	}
	return os.WriteFile(expectedFleetFile, append(data, '\n'), 0o644)
}

func (f *fleetSched) checkExpected(got cluster.PolicyResult) check {
	const name = "seed-1 outcome as committed"
	data, err := os.ReadFile(expectedFleetFile)
	if err != nil {
		return checkErr(name, err)
	}
	var want expectedFleet
	if err := json.Unmarshal(data, &want); err != nil {
		return checkErr(name, err)
	}
	if want.GOARCH != runtime.GOARCH {
		return checkThat(name, true, "skipped: recorded on %s, running on %s", want.GOARCH, runtime.GOARCH)
	}
	if want.NICs != f.sc.NICs || want.Arrivals != f.sc.Arrivals {
		return checkThat(name, false, "recorded for %d NICs / %d arrivals, running %d / %d", want.NICs, want.Arrivals, f.sc.NICs, f.sc.Arrivals)
	}
	return checkErr(name, sameFleetOutcome(want.Result, got))
}

// halfLoaded fills a fleet of n NICs through the exported Tenants field:
// one or two residents per NIC, cycling the scenario's NFs and profiles.
func (f *fleetSched) halfLoaded(n int) (*cluster.Fleet, error) {
	fl, err := f.env.ScenarioFleet(cluster.Scenario{NICs: n})
	if err != nil {
		return nil, err
	}
	pool := f.sc.ProfilePool()
	id := 0
	for i, nic := range fl.NICs {
		for j := 0; j < 1+i%2; j++ {
			nic.Tenants = append(nic.Tenants, cluster.Tenant{ID: id, Arrival: placement.Arrival{
				Name: f.sc.NFs[id%len(f.sc.NFs)], Profile: pool[id%len(pool)], SLA: 0.5}})
			id++
		}
	}
	return fl, nil
}

// ladder commits the scheduler's scaling curve — one Choose on
// half-loaded fleets of growing size — and walks decisions on the
// workload's own fleet size down the layers: the scheduler, the batched
// feasibility pass over the same resident sets, and the backend's batch
// evaluator over them.
func (f *fleetSched) ladder(tr *tracer, rows map[string]float64) error {
	sched, err := cluster.NewScheduler(fleetPolicy, f.env, f.sc.Seed)
	if err != nil {
		return err
	}
	pool := f.sc.ProfilePool()
	arrival := func(i int) placement.Arrival {
		return placement.Arrival{Name: f.sc.NFs[i%len(f.sc.NFs)], Profile: pool[i%len(pool)], SLA: 0.2}
	}
	var first firstErr
	note := first.note
	few := max(f.cfg.LadderOps/100, 2)
	for _, n := range chooseSizes {
		fl, err := f.halfLoaded(n)
		if err != nil {
			return err
		}
		rows[fmt.Sprintf("cluster.choose_us_%d", n)] = loop(few, func(i int) {
			_, err := sched.Choose(fl, arrival(i))
			note(err)
		}).ns / 1e3
	}

	fl, err := f.halfLoaded(f.cfg.FleetNICs)
	if err != nil {
		return err
	}
	var sets [][]placement.Arrival
	for i, nic := range fl.NICs {
		if !fl.Fits(i) {
			continue
		}
		set := make([]placement.Arrival, len(nic.Tenants))
		for j, t := range nic.Tenants {
			set[j] = t.Arrival
		}
		sets = append(sets, set)
	}
	strat := placement.PredictionAware(fleetPolicy)
	b, _ := backend.Get(fleetPolicy)
	solo := func(a placement.Arrival) *nicsim.Measurement {
		m, err := f.env.Sim.TB.SoloNF(a.Name, a.Profile)
		note(err)
		return &m
	}
	solos := map[backend.Key]*nicsim.Measurement{}
	for _, nf := range f.sc.NFs {
		for _, p := range pool {
			solos[backend.Key{NF: nf, Profile: p}] = solo(placement.Arrival{Name: nf, Profile: p})
		}
	}
	for i := 0; i < f.cfg.TraceOps[f.def.Name] && first.err == nil; i++ {
		a := arrival(i)
		model, err := f.models.Model(fleetPolicy, a.Name)
		if err != nil {
			return err
		}
		start := time.Now()
		tr.rung(i, "cluster.choose", "op", func() {
			_, err := sched.Choose(fl, a)
			note(err)
		})
		tr.rung(i, "placement.feasible_batch", "cluster.choose", func() {
			_, err := f.env.Sim.FeasibleBatch(sets, a, strat)
			note(err)
		})
		tr.rung(i, "backend.batch", "placement.feasible_batch", func() {
			// The newcomer's own prediction beside each resident set: one
			// of the len(set)+1 evaluations feasibility makes per set.
			batch := backend.NewBatch(b)
			target := backend.Key{NF: a.Name, Profile: a.Profile}
			var comps []backend.Competitor
			for _, set := range sets {
				comps = comps[:0]
				for _, r := range set {
					comps = append(comps, backend.Competitor{NF: r.Name, Profile: r.Profile, Solo: solos[backend.Key{NF: r.Name, Profile: r.Profile}]})
				}
				_, err := batch.Predict(model, target, comps, solos[target].Throughput)
				note(err)
			}
		})
		tr.add("ladder", i, "op", "", start, time.Now())
	}
	if first.err != nil {
		return first.err
	}
	nsets := float64(len(sets))
	rows["placement.feasible_batch_us_per_set"] = ratio(tr.meanUS("placement.feasible_batch"), nsets)
	rows["backend.batch_predict_ns_per_set"] = 1e3 * ratio(tr.meanUS("backend.batch"), nsets)
	pair := []placement.Arrival{arrival(1), arrival(2)}
	rows["placement.feasible_us"] = loop(f.cfg.LadderOps, func(i int) {
		_, err := f.env.Sim.Feasible(pair, arrival(i), strat)
		note(err)
	}).ns / 1e3
	return first.err
}
