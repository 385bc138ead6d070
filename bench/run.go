package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/profiling"
	"repro/internal/serve"
	"repro/internal/traffic"
)

// config is one invocation's settings. Only Seed reaches the generated
// inputs; everything else sizes the harness. quickConfig shrinks the
// sizes for the smoke test, never the code paths.
type config struct {
	Seed   uint64
	Window time.Duration
	Slices int
	// SetupReps is how many times a workload is booted at least; boots
	// repeat (up to three times as often) until they total SetupFloorS.
	SetupReps   int
	SetupFloorS float64
	Clients     int
	Quick       bool
	OutDir      string
	// UpdateExpected rewrites bench/expected from this run instead of
	// checking against it.
	UpdateExpected bool
	// ModelDir holds the seed-1 models every workload loads.
	ModelDir string
	// Train overrides on-demand training; the zero value leaves the
	// registry's default, backend.QuickYalaConfig(1).
	Train core.TrainConfig

	FleetNICs, FleetArrivals int
	// FleetProfiles is the scenario's traffic-profile pool size.
	FleetProfiles            int
	MixRate                  float64
	MixScenarios, MixWarmOps int
	CacheFill                int
	MapeSample               int
	// NovelFlowsHi caps the flow count of serve-novel's never-seen
	// profiles: a solo measurement costs time linear in the flow count.
	NovelFlowsHi float64
	// LadderOps is the op count of a microsecond-scale rung; nanosecond
	// rungs run 100x that, millisecond rungs LadderOps/250.
	LadderOps int
	// TraceOps is how many inputs the serial traced replay walks down
	// the ladder, per workload.
	TraceOps map[string]int

	// trained caches trainingRows' timings for the invocation.
	trained map[string]float64
}

func fullConfig(seed uint64, seconds int) *config {
	_, flowsHi := traffic.AttrFlows.Bounds()
	return &config{
		Seed: seed, Window: time.Duration(seconds) * time.Second, Slices: 8, SetupReps: 3, SetupFloorS: 1, Clients: maxClients,
		FleetNICs: 1024, FleetArrivals: 3000, FleetProfiles: 4,
		MixRate: 1200, MixScenarios: 20000, MixWarmOps: 3000,
		CacheFill: 16384, MapeSample: 16, LadderOps: 2000,
		NovelFlowsHi: flowsHi,
		TraceOps:     map[string]int{"serve-hot": 2000, "serve-novel": 40, "gateway-mix": 2000, "fleet-sched": 200},
	}
}

// quickConfig is the smoke test's: the training setup internal/serve's
// own tests use, one-second windows, a 64-NIC fleet, and only
// small-flow-count profiles so no simulation takes long under -race.
func quickConfig(seed uint64) *config {
	c := fullConfig(seed, 1)
	c.Quick, c.SetupReps, c.SetupFloorS, c.Slices = true, 1, 0, 4
	c.Train = core.DefaultTrainConfig()
	c.Train.Seed, c.Train.Plan, c.Train.PatternProbes = 1, profiling.Random(12, 1), 1
	for i := range c.Train.Plan.Samples {
		// Profiling cost is linear in the flow count too.
		p := &c.Train.Plan.Samples[i].Profile
		p.Flows = 1000 + p.Flows%15000
	}
	c.Train.GBR = ml.GBRConfig{Trees: 25, LearningRate: 0.15, MaxDepth: 3, MinLeaf: 2, Subsample: 1, Seed: 1}
	c.FleetNICs, c.FleetArrivals, c.FleetProfiles = 64, 150, 1
	c.MixRate, c.MixScenarios, c.MixWarmOps = 300, 2000, 100
	c.CacheFill, c.MapeSample, c.LadderOps = 256, 2, 40
	c.NovelFlowsHi = 8000
	c.TraceOps = map[string]int{"serve-hot": 40, "serve-novel": 1, "gateway-mix": 40, "fleet-sched": 4}
	return c
}

func (c *config) registry() serve.RegistryConfig {
	return serve.RegistryConfig{Dir: c.ModelDir, Train: c.Train}
}

func (c *config) service() serve.ServiceConfig {
	return serve.ServiceConfig{Registry: c.registry()}
}

// instance is one booted workload: servers up, models loaded, caches
// warm, ready for its first timed op.
type instance interface {
	// window measures the workload for dur, consuming inputs from index
	// from. A non-nil tracer records one span per client op.
	window(from int, dur time.Duration, tr *tracer) (windowResult, windowStats)
	// counters reads the program's own cumulative exports.
	counters() map[string]float64
	// layers turns the counters' change over a window (plus the window's
	// wall time, "wall_s") into per-layer rows.
	layers(delta, rows map[string]float64)
	// setup reports what boot spent on model loading and solo warm-up.
	setup(rows map[string]float64)
	// verify checks the program's outputs; it may add quality rows.
	verify(rows map[string]float64) []check
	// ladder replays a prefix of the inputs serially, one span per layer,
	// and times the isolated rungs this workload owns.
	ladder(tr *tracer, rows map[string]float64) error
	close()
}

// workloadDef describes a workload before it is booted.
type workloadDef struct {
	Name, Why string
	// TailPct is the fixed tail percentile: the highest that has at least
	// ten samples beyond it in every slice and holds its bound run to run
	// on the reference box (gateway-mix's p99 is set by the VM's timer
	// hiccups, not by the system, so it reports p95). Whole takes it, the
	// median and the rate over the whole window instead.
	TailPct float64
	Whole   bool
	boot    func(cfg *config, def workloadDef) (instance, error)
}

var workloads = []workloadDef{
	{Name: "serve-hot", TailPct: 0.99, boot: bootServeHot,
		Why: "closed loop, 2 wire clients, 42 pre-warmed scenarios, 100% cache hits: per-request overhead of SDK, wire and serve front door; tail=p99"},
	{Name: "serve-novel", TailPct: 0.90, Whole: true, boot: bootServeNovel,
		Why: "closed loop, 2 wire clients, every competitor profile never seen: testbed and backend do all the work, transport is noise; tail=p90 of window"},
	{Name: "gateway-mix", TailPct: 0.95, boot: bootGatewayMix,
		Why: "open loop 1200 ops/s over HTTP to gateway and 2 replicas, Zipf scenarios, predict/batch/admit/ingest/reload mix: scale-out path unsaturated; tail=p95"},
	{Name: "fleet-sched", TailPct: 0.99, boot: bootFleetSched,
		Why: "batch replays of a 3000-arrival churn stream on 1024 NICs under the yala policy, no sockets: scheduler decision cost; tail=decision p99"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// workloadResult is one workload's part of the record.
type workloadResult struct {
	Name        string             `json:"name"`
	Why         string             `json:"why"`
	Correct     bool               `json:"correct"`
	Checks      []check            `json:"checks"`
	Attempted   int                `json:"attempted"`
	Succeeded   int                `json:"succeeded"`
	Failed      int                `json:"failed"`
	TailPct     float64            `json:"tail_percentile"`
	TailSamples int                `json:"tail_samples"`
	EndToEnd    map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	Slices      []sliceRow         `json:"slices,omitempty"`
	SetupRuns   []float64          `json:"setup_runs_s"`
}

// runWorkload boots a workload several times (set-up time is the
// median), measures it, verifies its outputs and, when traced, walks its
// ladder. traceMode is "0" (end-to-end only), "1" (per-layer only) or
// "both".
func runWorkload(def workloadDef, cfg *config, traceMode string, log io.Writer) (workloadResult, error) {
	res := workloadResult{Name: def.Name, Why: def.Why, TailPct: def.TailPct}
	var inst instance
	// A boot that takes a tenth of a second is timed more often than one
	// that takes seconds, so the median is as steady for either.
	total := 0.0
	for rep := 0; rep < cfg.SetupReps || (total < cfg.SetupFloorS && rep < 3*cfg.SetupReps); rep++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = def.boot(cfg, def); err != nil {
			return res, fmt.Errorf("%s: boot: %w", def.Name, err)
		}
		res.SetupRuns = append(res.SetupRuns, time.Since(t0).Seconds())
		total += res.SetupRuns[rep]
	}
	defer inst.close()
	fmt.Fprintf(log, "%s: booted %d times, set-up runs %.3fs\n", def.Name, len(res.SetupRuns), res.SetupRuns)

	rows := map[string]float64{}
	inst.setup(rows)
	next := 0
	var ref windowStats
	account := func(st windowStats, w windowResult) {
		res.Attempted += st.Attempted
		res.Failed += st.Failed
		if w.FirstErr != nil {
			res.Checks = append(res.Checks, checkErr("ops", w.FirstErr))
		}
	}
	// health records how well the window supports its own percentiles.
	health := func(st windowStats) {
		res.TailSamples = st.TailSamples
		rows["loadgen.tail_samples"] = float64(st.TailSamples)
		rows["loadgen.slice_spread_pct"] = st.SpreadPct
	}
	if traceMode != "1" {
		w, st := inst.window(next, cfg.Window, nil)
		next, ref = w.Next, st
		account(st, w)
		res.EndToEnd = map[string]float64{
			"setup_s":         median(res.SetupRuns),
			"ops_per_s":       st.OpsPerS,
			"latency_p50_us":  st.P50US,
			"latency_tail_us": st.TailUS,
			"cpu_us_per_op":   st.CPUUSPerOp,
		}
		res.Slices = st.Rows
		health(st)
	}
	var tr *tracer
	if traceMode != "0" {
		// Counters and the tracing overhead come from a window with one
		// span per client op; its untraced reference is the end-to-end
		// window above, or a half window of its own.
		half := cfg.Window / 2
		if traceMode == "1" {
			w, st := inst.window(next, half, nil)
			next, ref = w.Next, st
			account(st, w)
		}
		tr = newTracer()
		before := inst.counters()
		w, st := inst.window(next, half, tr)
		after := inst.counters()
		account(st, w)
		delta := map[string]float64{"wall_s": w.Wall.Seconds()}
		for k, v := range after {
			delta[k] = v - before[k]
		}
		inst.layers(delta, rows)
		res.Checks = append(res.Checks, regimeChecks(def.Name, cfg, rows)...)
		done := float64(st.Attempted - st.Failed)
		rows["proc.allocs_per_op"] = ratio(float64(w.proc.mallocs-w.procBefore.mallocs), done)
		rows["proc.alloc_kb_per_op"] = ratio(float64(w.proc.bytes-w.procBefore.bytes)/1024, done)
		rows["proc.gc_cycles"] = float64(w.proc.gc - w.procBefore.gc)
		rows["proc.gc_pause_ms"] = float64(w.proc.pauseNs-w.procBefore.pauseNs) / 1e6
		rows["proc.heap_peak_mb"] = w.heapPeakMB
		rows["loadgen.late_p99_us"] = st.LateP99US
		rows["bench.trace_overhead_pct"] = 100 * ratio(ref.OpsPerS-st.OpsPerS, ref.OpsPerS)
		if traceMode == "1" {
			health(st)
		}
	}
	res.Succeeded = res.Attempted - res.Failed
	rows["loadgen.ops_attempted"] = float64(res.Attempted)
	rows["loadgen.ops_failed"] = float64(res.Failed)
	rows["loadgen.fail_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))

	res.Checks = append(res.Checks, inst.verify(rows)...)
	res.Checks = append(res.Checks, checkThat("fail_ratio", res.Failed == 0 && res.Attempted > 0,
		"%d of %d ops failed", res.Failed, res.Attempted))
	if tr != nil {
		if err := trainingRows(cfg, rows); err != nil {
			return res, err
		}
		if err := inst.ladder(tr, rows); err != nil {
			return res, fmt.Errorf("%s: ladder: %w", def.Name, err)
		}
		if err := tr.write(cfg.OutDir, def.Name, cfg.Seed); err != nil {
			return res, err
		}
		res.PerLayer = map[string]float64{}
		for _, m := range perLayer {
			res.PerLayer[m.Name] = rows[m.Name]
		}
	}
	res.Correct = true
	for _, c := range res.Checks {
		res.Correct = res.Correct && c.OK
	}
	for name, v := range merged(res.EndToEnd, res.PerLayer) {
		if !finite(v) {
			res.Correct = false
			res.Checks = append(res.Checks, checkThat("finite", false, "%s is %v", name, v))
		}
	}
	return res, nil
}

// regimeChecks hold a traced window to the regime its workload was
// chosen for: a run that drifted out of it measures something else.
func regimeChecks(workload string, cfg *config, rows map[string]float64) []check {
	switch workload {
	case "serve-hot":
		return []check{checkThat("regime: all cache hits", rows["serve.cache_hit_ratio"] == 1,
			"serve.cache_hit_ratio %g", rows["serve.cache_hit_ratio"])}
	case "serve-novel":
		return []check{checkThat("regime: all cache misses", rows["serve.cache_hit_ratio"] < 0.05,
			"serve.cache_hit_ratio %g", rows["serve.cache_hit_ratio"])}
	case "gateway-mix":
		hit := rows["gateway.edge_hit_ratio"]
		return []check{
			// The smoke test's window is too short to fill the edge cache.
			checkThat("regime: edge hits beside misses", cfg.Quick || (hit > 0.3 && hit < 0.95), "gateway.edge_hit_ratio %g", hit),
			checkThat("regime: wire upstreams", rows["gateway.wire_upstreams"] == mixReplicas, "%g of %d", rows["gateway.wire_upstreams"], mixReplicas),
		}
	}
	return nil
}

func merged(ms ...map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range ms {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}

// printResult renders one workload for a person: every metric by name
// and unit, then every check.
func printResult(w io.Writer, r workloadResult) {
	fmt.Fprintf(w, "\n== %s ==  attempted %d, succeeded %d, failed %d; tail = p%g (%d samples beyond it)\n",
		r.Name, r.Attempted, r.Succeeded, r.Failed, 100*r.TailPct, r.TailSamples)
	line := func(defs []metricDef, vals map[string]float64) {
		for _, m := range defs {
			if v, ok := vals[m.Name]; ok {
				fmt.Fprintf(w, "  %-36s %16.4f %-10s (%s is better)\n", m.Name, v, m.Unit, m.Better)
			}
		}
	}
	line(endToEnd, r.EndToEnd)
	line(perLayer, r.PerLayer)
	names := make([]string, 0, len(r.Checks))
	for _, c := range r.Checks {
		state := "ok"
		if !c.OK {
			state = "FAILED"
		}
		names = append(names, fmt.Sprintf("  check %-28s %s  %s", c.Name, state, c.Detail))
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintln(w, n)
	}
}
