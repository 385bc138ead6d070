// Package loadgen is the client half of the serving conversation: it
// replays randomized arrival scenarios against a live `yala serve` or
// `yala gateway` through the public pkg/yalaclient SDK (yala loadgen)
// and measures the raw yalawire echo floor (-wirefloor). It imports the
// SDK, obs and wire, never internal/serve.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/pkg/yalaclient"
)

// Config shapes a load-generation run.
type Config struct {
	// URL is the server base URL.
	URL string
	// Workers is the number of concurrent client connections.
	Workers int
	// Requests is the total request count across workers.
	Requests int
	// Seed drives scenario randomization.
	Seed uint64
	// NFs is the target/competitor NF pool; empty selects a default mix
	// of memory-bound and accelerator-using catalog NFs.
	NFs []string
	// Profiles is the size of the distinct traffic-profile pool. Small
	// pools exercise the warm-cache path; large pools the miss path.
	Profiles int
	// MaxCompetitors bounds each scenario's co-location size.
	MaxCompetitors int
	// CompareFrac, DiagnoseFrac and AdmitFrac divert that fraction of
	// requests to the respective API; the rest are Predicts.
	CompareFrac  float64
	DiagnoseFrac float64
	AdmitFrac    float64
	// IngestFrac diverts that fraction of requests to the feedback
	// path: predict the target solo, then Ingest IngestShift times the
	// prediction as a ground-truth measurement. The default shift of 1
	// confirms the model; a sustained other value is the synthetic
	// hardware change the server's drift gate should trip on.
	IngestFrac  float64
	IngestShift float64
	// Batch groups that many scenarios per round trip of the mix's
	// Predict share, via the batch endpoint (1 = single requests).
	Batch int
	// WireAddr, when set, routes the Predict/PredictBatch share of the
	// mix over the server's yalawire listener at this address
	// (yalaclient.WithWire); everything else stays on HTTP/JSON.
	WireAddr string `json:",omitempty"`
	// Gateway marks the URL as a scale-out gateway: the run brackets
	// itself with /v2/gateway/stats and reports the per-replica request
	// distribution and edge-cache counters.
	Gateway bool
	// TenantKeys runs one simulated tenant per API key (an empty string
	// is the anonymous tenant), Workers and Requests split evenly across
	// them. Their 429 refusals count as shed traffic, not errors — they
	// are the server doing its job. Empty: one anonymous, unpaced tenant.
	TenantKeys []string
	// HotTenant is the index into TenantKeys of one hostile flooder that
	// sends unpaced; every other tenant paces itself to QuietRPS
	// requests per second (default 20). Negative = no flooder.
	HotTenant int
	QuietRPS  float64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Requests <= 0 {
		c.Requests = 10000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.NFs) == 0 {
		c.NFs = []string{"FlowStats", "ACL", "NAT", "FlowMonitor", "NIDS"}
	}
	if c.Profiles <= 0 {
		c.Profiles = 4
	}
	if c.MaxCompetitors <= 0 {
		c.MaxCompetitors = 3
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	if c.IngestShift <= 0 {
		c.IngestShift = 1
	}
	if c.QuietRPS <= 0 {
		c.QuietRPS = 20
	}
	return c
}

// Report summarizes one run.
type Report struct {
	// Requests is the HTTP round-trip count; Predictions the scenario
	// count (a batch round trip carries Batch scenarios, a Compare two).
	Requests    int           `json:"requests"`
	Predictions int           `json:"predictions"`
	Errors      int           `json:"errors"`
	Duration    time.Duration `json:"duration"`
	RPS         float64       `json:"rps"`
	PPS         float64       `json:"pps"` // predictions per second
	// P50..Max cover served requests only — a refused or failed round
	// trip's fast rejection would otherwise flatter the numbers.
	P50 time.Duration `json:"p50"`
	P90 time.Duration `json:"p90"`
	P99 time.Duration `json:"p99"`
	Max time.Duration `json:"max"`
	// Replicas is how the rendezvous router spread this run across the
	// replicas, EdgeHits and EdgeMisses the edge cache's deltas over it
	// (gateway runs only).
	Replicas   []ReplicaLoad `json:"replicas,omitempty"`
	EdgeHits   uint64        `json:"edge_hits,omitempty"`
	EdgeMisses uint64        `json:"edge_misses,omitempty"`
	// Shed counts keyed tenants' 429 refusals, neither successes nor
	// errors: the quiet-tenant isolation claim is "Errors 0 AND Shed 0
	// for quiet rows". Tenants is the per-key breakdown.
	Shed    int          `json:"shed,omitempty"`
	Tenants []TenantLoad `json:"tenants,omitempty"`
	// Stages is the server-side latency attribution for this run: the
	// delta of the server's yala_stage_seconds histograms between
	// /metrics scrapes before and after the workload. The percentiles
	// above include network and queueing; this says where the server
	// itself spent the time. Empty when the target has no /metrics.
	Stages []StageStat `json:"stages,omitempty"`
	// Cache is the server response cache over this run — /v2/stats hit,
	// miss and eviction deltas plus the closing entry count — for the
	// CLI's hit-rate line; not part of the JSON record.
	Cache yalaclient.CacheStats `json:"-"`
}

// StageStat is one request-pipeline stage's server-side latency over a
// run; Count is how many spans the stage recorded during it.
type StageStat struct {
	Stage string        `json:"stage"`
	Count uint64        `json:"count"`
	Avg   time.Duration `json:"avg"`
	P50   time.Duration `json:"p50"`
	P99   time.Duration `json:"p99"`
}

// TenantLoad is one simulated tenant's outcome in a multi-tenant run.
type TenantLoad struct {
	Key      string        `json:"key"`
	Hot      bool          `json:"hot,omitempty"`
	Requests int           `json:"requests"`
	OK       int           `json:"ok"`
	Shed     int           `json:"shed"`
	Errors   int           `json:"errors"`
	RPS      float64       `json:"rps"` // achieved (served) rps
	P50      time.Duration `json:"p50"`
	P99      time.Duration `json:"p99"`
}

// ReplicaLoad is one replica's share of a gateway loadgen run.
type ReplicaLoad struct {
	URL      string `json:"url"`
	Requests uint64 `json:"requests"`
	Healthy  bool   `json:"healthy"`
}

// String renders the report for the CLI.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests    %d (%d errors)\n", r.Requests, r.Errors)
	fmt.Fprintf(&b, "duration    %v\n", r.Duration.Round(time.Millisecond))
	fmt.Fprintf(&b, "throughput  %.0f req/s, %.0f predictions/s\n", r.RPS, r.PPS)
	fmt.Fprintf(&b, "latency     p50 %v  p90 %v  p99 %v  max %v",
		r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond))
	for _, st := range r.Stages {
		fmt.Fprintf(&b, "\nstage       %-8s n=%-7d avg %v  p50 %v  p99 %v",
			st.Stage, st.Count, st.Avg.Round(time.Microsecond),
			st.P50.Round(time.Microsecond), st.P99.Round(time.Microsecond))
	}
	for _, tn := range r.Tenants {
		name := tn.Key
		if name == "" {
			name = "(anonymous)"
		}
		if tn.Hot {
			name += " [hot]"
		}
		fmt.Fprintf(&b, "\ntenant      %-20s %6d reqs  ok %-6d shed %-6d errs %-4d %7.1f rps  p50 %v  p99 %v",
			name, tn.Requests, tn.OK, tn.Shed, tn.Errors, tn.RPS,
			tn.P50.Round(time.Microsecond), tn.P99.Round(time.Microsecond))
	}
	if len(r.Replicas) > 0 {
		fmt.Fprintf(&b, "\nedge cache  %d hits, %d misses this run", r.EdgeHits, r.EdgeMisses)
		for _, rep := range r.Replicas {
			state := "up"
			if !rep.Healthy {
				state = "DOWN"
			}
			fmt.Fprintf(&b, "\nreplica     %-28s %7d reqs (%s)", rep.URL, rep.Requests, state)
		}
	}
	return b.String()
}

// errShed marks a 429 refusal of a keyed tenant: shed, not failed.
var errShed = errors.New("loadgen: shed")

// outcome is what a closed loop observed: sorted latencies of served
// calls, predictions they carried, refusals, failures, the first failure.
type outcome struct {
	lats       []time.Duration
	preds      int
	shed, errs int
	first      error
}

func (o *outcome) add(p outcome) {
	o.lats = append(o.lats, p.lats...)
	o.preds += p.preds
	o.shed += p.shed
	o.errs += p.errs
	if o.first == nil {
		o.first = p.first
	}
}

func (o *outcome) sort() {
	sort.Slice(o.lats, func(i, j int) bool { return o.lats[i] < o.lats[j] })
}

// closedLoop is the run loop: workers goroutines share a budget of n
// calls, each issuing its next call only once the previous one has
// returned and, when pace is set, no sooner than pace after it started.
// call reports how many predictions the round trip carried; only served
// round trips count toward latency and predictions.
func closedLoop(workers, n int, pace time.Duration, call func(wk int) (int, error)) outcome {
	var (
		issued atomic.Int64
		mu     sync.Mutex
		all    outcome
		wg     sync.WaitGroup
	)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			var o outcome
			for issued.Add(1) <= int64(n) {
				t0 := time.Now()
				preds, err := call(wk)
				d := time.Since(t0)
				switch {
				case err == nil:
					o.lats = append(o.lats, d)
					o.preds += preds
				case err == errShed:
					o.shed++
				default:
					o.errs++
					if o.first == nil {
						o.first = err
					}
				}
				if d < pace {
					time.Sleep(pace - d)
				}
			}
			mu.Lock()
			all.add(o)
			mu.Unlock()
		}(wk)
	}
	wg.Wait()
	all.sort()
	return all
}

// Run replays randomized arrival scenarios against a live server —
// through the public pkg/yalaclient SDK and the /v2 API — and measures
// client-observed latency. Scenarios are drawn from a bounded pool of
// (NF, competitor set, traffic profile) combinations, so a run first
// warms the server's cache and then mostly measures the hit path — the
// paper's serving regime, where the same co-location is consulted on
// every arrival event.
//
// A run is a set of tenants, each with its own client (one connection
// pool, as a high-fan-in front end would hold), an even share of the
// workers and requests and — unless it is the flooder — pacing. The
// default run is the one-anonymous-unpaced-tenant case; its 429s are
// failures, a keyed tenant's are shed traffic.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	if cfg.URL == "" {
		return Report{}, fmt.Errorf("loadgen: a server URL is required")
	}
	keys, hot, keyed := cfg.TenantKeys, cfg.HotTenant, len(cfg.TenantKeys) > 0
	if !keyed {
		keys, hot = []string{""}, 0
	}
	workersPer := max(cfg.Workers/len(keys), 1)
	reqsPer := max(cfg.Requests/len(keys), 1)
	profiles := profilePool(cfg)
	clients := make([]*yalaclient.Client, len(keys))
	for i, key := range keys {
		// An empty key or wire address leaves that option off.
		clients[i] = yalaclient.New(cfg.URL, yalaclient.WithAPIKey(key), yalaclient.WithWire(cfg.WireAddr))
		defer clients[i].Close()
	}
	// Only anonymous runs are bracketed: a keyed run reports per-tenant
	// rows, and its /v2/stats probe would be charged to a tenant's bucket.
	finish := func(*Report) {}
	if !keyed {
		var err error
		if finish, err = bracket(clients[0], cfg); err != nil {
			return Report{}, err
		}
	}

	outs := make([]outcome, len(keys))
	var wg sync.WaitGroup
	start := time.Now()
	for ti := range keys {
		// Pacing spreads the tenant's target rate across its workers;
		// the hot tenant gets none and floods.
		var pace time.Duration
		if ti != hot {
			pace = time.Duration(float64(workersPer) / cfg.QuietRPS * float64(time.Second))
		}
		rngs := make([]*sim.RNG, workersPer)
		for wk := range rngs {
			rngs[wk] = sim.NewRNG(cfg.Seed + uint64(ti)*0x1000193 + uint64(wk)*0x9e3779b9 + 1)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[ti] = closedLoop(workersPer, reqsPer, pace, func(wk int) (int, error) {
				preds, err := fireOne(clients[ti], cfg, rngs[wk], profiles)
				var rle *yalaclient.RateLimitError
				if keyed && errors.As(err, &rle) {
					err = errShed
				}
				return preds, err
			})
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	secs := max(elapsed.Seconds(), 1e-9) // never divide by a zero-length run

	rep := Report{Duration: elapsed}
	var all outcome
	for ti, o := range outs {
		all.add(o)
		if keyed {
			rep.Tenants = append(rep.Tenants, TenantLoad{
				Key:      keys[ti],
				Hot:      ti == hot,
				Requests: len(o.lats) + o.shed + o.errs,
				OK:       len(o.lats),
				Shed:     o.shed,
				Errors:   o.errs,
				RPS:      float64(len(o.lats)) / secs,
				P50:      percentile(o.lats, 0.50),
				P99:      percentile(o.lats, 0.99),
			})
		}
	}
	all.sort()
	rep.Requests = len(all.lats) + all.shed + all.errs
	rep.Predictions, rep.Shed, rep.Errors = all.preds, all.shed, all.errs
	rep.RPS = float64(rep.Requests) / secs
	rep.PPS = float64(rep.Predictions) / secs
	rep.P50 = percentile(all.lats, 0.50)
	rep.P90 = percentile(all.lats, 0.90)
	rep.P99 = percentile(all.lats, 0.99)
	rep.Max = percentile(all.lats, 1)
	finish(&rep)
	if rep.Errors > 0 {
		return rep, fmt.Errorf("loadgen: %d/%d requests failed (first: %w)", rep.Errors, rep.Requests, all.first)
	}
	return rep, nil
}

// bracket snapshots the server's view of itself — /v2/gateway/stats on
// gateway runs, /v2/stats, /metrics — and returns the function that,
// called after the workload, fills the report's server-side blocks with
// this run's deltas, not lifetimes. Only the opening gateway probe can
// fail the run (-gateway against a plain server is a usage error); the
// rest is best-effort: an endpoint that is missing, or gone by teardown,
// drops its block, never the run. A gateway's /metrics is fleet-merged,
// so the stage breakdown covers every replica the run touched.
func bracket(c *yalaclient.Client, cfg Config) (func(*Report), error) {
	ctx := context.Background()
	var gw0 yalaclient.GatewayStats
	if cfg.Gateway {
		var err error
		if gw0, err = c.GatewayStats(ctx); err != nil {
			return nil, fmt.Errorf("loadgen: -gateway against %s: %w (is it a yala gateway?)", cfg.URL, err)
		}
	}
	st0, stErr := c.Stats(ctx)
	m0, mErr := scrape(cfg.URL)
	return func(rep *Report) {
		if m1, err := scrape(cfg.URL); err == nil && mErr == nil {
			rep.Stages = stageBreakdown(m0, m1)
		}
		if st1, err := c.Stats(ctx); err == nil && stErr == nil {
			rep.Cache = yalaclient.CacheStats{
				Entries:   st1.Cache.Entries,
				Hits:      counterDelta(st1.Cache.Hits, st0.Cache.Hits),
				Misses:    counterDelta(st1.Cache.Misses, st0.Cache.Misses),
				Evictions: counterDelta(st1.Cache.Evictions, st0.Cache.Evictions),
			}
		}
		if !cfg.Gateway {
			return
		}
		gw1, err := c.GatewayStats(ctx)
		if err != nil {
			return
		}
		was := map[string]uint64{}
		for _, r := range gw0.Replicas {
			was[r.URL] = r.Requests
		}
		for _, r := range gw1.Replicas {
			rep.Replicas = append(rep.Replicas, ReplicaLoad{
				URL:      r.URL,
				Requests: counterDelta(r.Requests, was[r.URL]),
				Healthy:  r.Healthy,
			})
		}
		rep.EdgeHits = counterDelta(gw1.EdgeHits, gw0.EdgeHits)
		rep.EdgeMisses = counterDelta(gw1.EdgeMisses, gw0.EdgeMisses)
	}, nil
}

// scrape is one bounded GET of the target's /metrics, read by the
// parser the gateway trusts on replica sockets.
func scrape(base string) (*obs.Exposition, error) {
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Get(strings.TrimRight(base, "/") + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: GET /metrics: status %d", resp.StatusCode)
	}
	return obs.ParseExposition(io.LimitReader(resp.Body, 16<<20))
}

// clientSpec converts a resolved traffic profile to the SDK wire form.
func clientSpec(p traffic.Profile) yalaclient.ProfileSpec {
	return yalaclient.ProfileSpec{Flows: p.Flows, PktSize: p.PktSize, MTBR: yalaclient.F64(p.MTBR)}
}

// profilePool is what every worker draws profiles from: the default
// profile plus random ones.
func profilePool(cfg Config) []yalaclient.ProfileSpec {
	rng := sim.NewRNG(cfg.Seed)
	profiles := []yalaclient.ProfileSpec{clientSpec(traffic.Default)}
	for len(profiles) < cfg.Profiles {
		profiles = append(profiles, clientSpec(traffic.Random(rng)))
	}
	return profiles
}

// randomScenario draws one (target, profile, competitors) combination.
func randomScenario(cfg Config, rng *sim.RNG, profiles []yalaclient.ProfileSpec) yalaclient.BatchItem {
	it := yalaclient.BatchItem{
		Model:   yalaclient.ModelID{NF: cfg.NFs[rng.Intn(len(cfg.NFs))]},
		Profile: profiles[rng.Intn(len(profiles))],
	}
	for n := rng.Intn(cfg.MaxCompetitors + 1); n > 0; n-- {
		it.Competitors = append(it.Competitors, yalaclient.Competitor{
			Name:    cfg.NFs[rng.Intn(len(cfg.NFs))],
			Profile: profiles[rng.Intn(len(profiles))],
		})
	}
	return it
}

// fireOne issues one randomized round trip and reports how many
// predictions it carried.
func fireOne(client *yalaclient.Client, cfg Config, rng *sim.RNG, profiles []yalaclient.ProfileSpec) (int, error) {
	ctx := context.Background()
	first := randomScenario(cfg, rng, profiles)
	model, prof, comps := first.Model, first.Profile, first.Competitors
	switch roll := rng.Float64(); {
	case roll < cfg.IngestFrac:
		// Report the model's own solo belief back, scaled by IngestShift,
		// as ground truth. Rotating the source label keeps one origin from
		// looking like the lone dissenter quarantine exists to catch.
		pred, err := client.Predict(ctx, model, "", yalaclient.PredictParams{Profile: prof})
		if err != nil {
			return 1, err
		}
		jitter := 1 + 0.01*(rng.Float64()-0.5)
		_, err = client.Ingest(ctx, yalaclient.Measurement{
			Model:       model,
			Profile:     prof,
			MeasuredPPS: pred.PredictedPPS * cfg.IngestShift * jitter,
			Source:      fmt.Sprintf("loadgen-%d", rng.Intn(3)),
		})
		return 1, err
	case roll < cfg.IngestFrac+cfg.AdmitFrac:
		residents := make([]yalaclient.Resident, 0, len(comps))
		for _, c := range comps {
			residents = append(residents, yalaclient.Resident{Name: c.Name, Profile: c.Profile, SLA: 0.1})
		}
		_, err := client.Admit(ctx, model, "", yalaclient.AdmitParams{
			Residents: residents,
			Profile:   prof,
			SLA:       0.1,
		})
		return 1, err
	case roll < cfg.IngestFrac+cfg.AdmitFrac+cfg.CompareFrac:
		_, err := client.Compare(ctx, model, yalaclient.CompareParams{Profile: prof, Competitors: comps})
		return 2, err // Yala + SLOMO
	case roll < cfg.IngestFrac+cfg.AdmitFrac+cfg.CompareFrac+cfg.DiagnoseFrac:
		_, err := client.Diagnose(ctx, model, yalaclient.PredictParams{Profile: prof, Competitors: comps})
		return 1, err
	case cfg.Batch > 1:
		items := make([]yalaclient.BatchItem, cfg.Batch)
		items[0] = first
		for i := 1; i < cfg.Batch; i++ {
			items[i] = randomScenario(cfg, rng, profiles)
		}
		resp, err := client.PredictBatch(ctx, items)
		if err != nil {
			return cfg.Batch, err
		}
		for _, e := range resp.Errors {
			if e != "" {
				return cfg.Batch, fmt.Errorf("loadgen: batch element failed: %s", e)
			}
		}
		return cfg.Batch, nil
	default:
		_, err := client.Predict(ctx, model, "", yalaclient.PredictParams{Profile: prof, Competitors: comps})
		return 1, err
	}
}

// stageBreakdown turns before/after /metrics scrapes into per-stage
// latency attribution: each yala_stage_seconds series' bucket-count
// deltas are this run's own histogram (the difference of two cumulative
// histograms is one), quantiles read off it via the shared estimator,
// the mean from the sum/count deltas. A stage the run did not touch is
// left out; a server restart mid-run makes a delta negative, and that
// stage is dropped rather than reported from garbage.
func stageBreakdown(before, after *obs.Exposition) []StageStat {
	const family = "yala_stage_seconds"
	var out []StageStat
	for _, s := range after.Samples {
		stage, ok := s.Label("stage")
		if s.Name != family+"_count" || !ok {
			continue
		}
		// The series' own rendered label block selects its buckets.
		uppers, cum, sumA, nA, _ := after.HistogramSeries(family, s.Labels)
		_, was, sumB, nB, had := before.HistogramSeries(family, s.Labels)
		if !had {
			was = make([]uint64, len(cum))
		}
		reset := nA <= nB || len(was) != len(cum)
		for i := 0; !reset && i < len(cum); i++ {
			reset = cum[i] < was[i]
			cum[i] -= was[i]
		}
		if reset {
			continue
		}
		n := nA - nB
		out = append(out, StageStat{
			Stage: stage,
			Count: n,
			Avg:   max(0, time.Duration((sumA-sumB)/float64(n)*float64(time.Second))),
			P50:   time.Duration(obs.BucketQuantile(uppers, cum, 0.50) * float64(time.Second)),
			P99:   time.Duration(obs.BucketQuantile(uppers, cum, 0.99) * float64(time.Second)),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stage < out[j].Stage })
	return out
}

// counterDelta is after-before for monotonic counters, degrading to the
// raw after-value when the counter reset between snapshots (a restart
// mid-run) — unsigned subtraction would wrap to a ~1.8e19 garbage delta.
func counterDelta(after, before uint64) uint64 {
	if after < before {
		return after
	}
	return after - before
}

// percentile reads the p-quantile from sorted latencies. The empty
// slice reads 0; out-of-range p clamps (p<=0 is the minimum, p>=1 the
// maximum — the index must never walk off either end).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(max(int(p*float64(len(sorted)-1)), 0), len(sorted)-1)]
}
