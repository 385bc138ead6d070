// Command yala is the CLI front end for the Yala reproduction: profile an
// NF's footprint, train its models, predict throughput under a
// co-location, diagnose its bottleneck, schedule an arrival sequence, or
// run the online prediction service and its load generator.
//
// Usage:
//
//	yala profile  -nf FlowMonitor [-flows n] [-pktsize n] [-mtbr f]
//	yala train    -nf FlowMonitor -out flowmonitor.json
//	yala predict  -nf FlowMonitor -with NIDS,FlowStats [-flows n] [-pktsize n] [-mtbr f]
//	yala diagnose -nf FlowMonitor [-mtbr f]
//	yala place    -arrivals 60 [-seed n]
//	yala serve    -addr :8844 -models DIR [-workers n] [-cache n] [-seed n] [-full] [-tenants keys.json] [-slo 250ms] [-pprof] [-accesslog] [-wire :8845]
//	yala gateway  -addr :8860 {-replicas N -models DIR | -backends url,url | -min 1 -max 4 -models DIR}
//	              [-edgecache n] [-health 500ms] [-tenants keys.json] [-slo 250ms] [-accesslog]
//	yala loadgen  -url http://localhost:8844 [-n 20000] [-c 8] [-profiles 4] [-gateway] [-seed n] [-json path]
//	              [-tenants n | -tenant-keys k1,k2] [-hot i] [-quietrps r] [-wire host:port [-wirefloor]]
//	yala cluster  -nics 16 -arrivals 120 [-classes bluefield2:12,pensando:4] [-workload churn|diurnal|flashcrowd|heavytail]
//	              [-policies random,firstfit,slomo,yala] [-seed n] [-json path] [-shiftat t -shiftscale f] [-online]
//	yala trace record -out scenario.trace [-arrivals n] [-classes ...] [-workload kind] [-seed n]
//	yala trace replay -in scenario.trace [-policies ...] [-models DIR] [-json path]
//	yala lint     [-json path] [-analyzers] [packages...]
//	yala list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/loadgen"
	"repro/internal/nf"
	"repro/internal/nfbench"
	"repro/internal/nicsim"
	"repro/internal/placement"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/slomo"
	"repro/internal/tenant"
	"repro/internal/testbed"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/pkg/yalaclient"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "profile":
		err = cmdProfile(args)
	case "train":
		err = cmdTrain(args)
	case "predict":
		err = cmdPredict(args)
	case "diagnose":
		err = cmdDiagnose(args)
	case "place":
		err = cmdPlace(args)
	case "serve":
		err = cmdServe(args)
	case "gateway":
		err = cmdGateway(args)
	case "loadgen":
		err = cmdLoadgen(args)
	case "cluster":
		err = cmdCluster(args)
	case "trace":
		err = cmdTrace(args)
	case "lint":
		err = cmdLint(args)
	case "list":
		fmt.Println(strings.Join(nf.Names(), "\n"))
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "yala:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: yala {profile|train|predict|diagnose|place|serve|gateway|loadgen|cluster|trace|lint|list} [flags]")
	os.Exit(2)
}

func profileFlags(fs *flag.FlagSet) (*string, *int, *int, *float64) {
	name := fs.String("nf", "FlowMonitor", "catalog NF name")
	flows := fs.Int("flows", traffic.Default.Flows, "flow count")
	pkt := fs.Int("pktsize", traffic.Default.PktSize, "packet size (B)")
	mtbr := fs.Float64("mtbr", traffic.Default.MTBR, "match-to-byte ratio (matches/MB)")
	return name, flows, pkt, mtbr
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	name, flows, pkt, mtbr := profileFlags(fs)
	fs.Parse(args)
	prof := traffic.Profile{Flows: *flows, PktSize: *pkt, MTBR: *mtbr}

	tb := testbed.New(nicsim.BlueField2(), 1)
	w, err := tb.Workload(*name, prof)
	if err != nil {
		return err
	}
	m, err := tb.RunSolo(w)
	if err != nil {
		return err
	}
	fmt.Printf("NF %s at %s on %s\n", *name, prof, tb.Config().Name)
	fmt.Printf("  pattern            %v\n", w.Pattern)
	fmt.Printf("  cpu/packet         %.0f ns\n", w.CPUSecPerPkt*1e9)
	fmt.Printf("  mem refs/packet    %.1f\n", w.MemRefsPerPkt)
	fmt.Printf("  working set        %.2f MB\n", w.WSSBytes/(1<<20))
	for _, kind := range nicsim.AccelKinds() {
		u, ok := w.Accel[kind]
		if !ok {
			continue
		}
		fmt.Printf("  %v: %.0f B/req, %.2f matches/req, %d queues\n",
			kind, u.BytesPerReq, u.MatchesPerReq, u.Queues)
	}
	fmt.Printf("  solo throughput    %.3f Mpps\n", m.Throughput/1e6)
	fmt.Printf("  bottleneck         %v\n", m.Bottleneck)
	return nil
}

// cmdTrain runs offline profiling and saves the fitted model as JSON —
// the artifact's train.py / models.pkl flow.
func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	name := fs.String("nf", "FlowMonitor", "catalog NF name")
	out := fs.String("out", "", "output model file (JSON)")
	seed := fs.Uint64("seed", 1, "training seed")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("train: -out is required")
	}
	tb := testbed.New(nicsim.BlueField2(), *seed)
	cfg := core.DefaultTrainConfig()
	cfg.Seed = *seed
	fmt.Printf("profiling and training %s...\n", *name)
	model, err := core.NewTrainer(tb, cfg).Train(*name)
	if err != nil {
		return err
	}
	if err := model.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("saved %s model (pattern %v, %d accelerator models) to %s\n",
		model.Name, model.Pattern, len(model.Accels), *out)
	return nil
}

func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	name, flows, pkt, mtbr := profileFlags(fs)
	with := fs.String("with", "NIDS", "comma-separated competitor NFs")
	fs.Parse(args)
	prof := traffic.Profile{Flows: *flows, PktSize: *pkt, MTBR: *mtbr}

	tb := testbed.New(nicsim.BlueField2(), 1)
	fmt.Printf("training Yala model for %s (offline profiling)...\n", *name)
	model, err := core.NewTrainer(tb, core.DefaultTrainConfig()).Train(*name)
	if err != nil {
		return err
	}

	var comps []core.Competitor
	ws := []*nicsim.Workload{}
	targetW, err := tb.Workload(*name, prof)
	if err != nil {
		return err
	}
	ws = append(ws, targetW)
	for _, c := range strings.Split(*with, ",") {
		c = strings.TrimSpace(c)
		cw, err := tb.Workload(c, traffic.Default)
		if err != nil {
			return err
		}
		solo, err := tb.RunSolo(cw)
		if err != nil {
			return err
		}
		comps = append(comps, core.CompetitorFromMeasurement(solo))
		ws = append(ws, cw)
	}

	pred := model.Predict(prof, comps)
	fmt.Printf("predicted solo        %.3f Mpps\n", pred.Solo/1e6)
	fmt.Printf("predicted co-located  %.3f Mpps\n", pred.Throughput/1e6)
	for res, t := range pred.Limits() {
		fmt.Printf("  %-8v limit       %.3f Mpps\n", res, t/1e6)
	}
	fmt.Printf("predicted bottleneck  %v\n", pred.Bottleneck)

	ms, err := tb.Run(ws...)
	if err != nil {
		return err
	}
	truth := ms[0].Throughput
	fmt.Printf("measured  co-located  %.3f Mpps (prediction error %.1f%%)\n",
		truth/1e6, 100*math.Abs(pred.Throughput-truth)/truth)
	return nil
}

func cmdDiagnose(args []string) error {
	fs := flag.NewFlagSet("diagnose", flag.ExitOnError)
	name, flows, pkt, mtbr := profileFlags(fs)
	fs.Parse(args)
	prof := traffic.Profile{Flows: *flows, PktSize: *pkt, MTBR: *mtbr}

	tb := testbed.New(nicsim.BlueField2(), 1)
	fmt.Printf("training Yala model for %s...\n", *name)
	model, err := core.NewTrainer(tb, core.DefaultTrainConfig()).Train(*name)
	if err != nil {
		return err
	}
	memB := nfbench.MemBench(120e6, 10<<20)
	regexB := nfbench.RegexBench(0.58e6, 1000, 2000, 1)
	memSolo, err := tb.RunSolo(memB)
	if err != nil {
		return err
	}
	regexSolo, err := tb.RunSolo(regexB)
	if err != nil {
		return err
	}
	pred := model.Predict(prof, []core.Competitor{
		core.CompetitorFromMeasurement(memSolo),
		core.CompetitorFromMeasurement(regexSolo),
	})
	w, err := tb.Workload(*name, prof)
	if err != nil {
		return err
	}
	ms, err := tb.Run(w, memB, regexB)
	if err != nil {
		return err
	}
	fmt.Printf("predicted bottleneck %v, ground truth %v\n", pred.Bottleneck, ms[0].Bottleneck)
	return nil
}

func cmdPlace(args []string) error {
	fs := flag.NewFlagSet("place", flag.ExitOnError)
	arrivals := fs.Int("arrivals", 40, "arrival count")
	seed := fs.Uint64("seed", 1, "sequence seed")
	fs.Parse(args)

	tb := testbed.New(nicsim.BlueField2(), *seed)
	names := []string{"FlowStats", "ACL", "FlowClassifier", "FlowTracker", "NAT"}
	ps := placement.NewSimulator(tb)
	for _, n := range names {
		fmt.Printf("training models for %s...\n", n)
		m, err := core.NewTrainer(tb, core.DefaultTrainConfig()).Train(n)
		if err != nil {
			return err
		}
		ps.SetModel("yala", n, backend.WrapYala(m))
		sm, err := slomo.Train(tb, n, traffic.Default, slomo.DefaultConfig())
		if err != nil {
			return err
		}
		ps.SetModel("slomo", n, backend.WrapSLOMO(sm))
	}
	rng := sim.NewRNG(*seed)
	var seq []placement.Arrival
	for i := 0; i < *arrivals; i++ {
		seq = append(seq, placement.Arrival{
			Name:    names[rng.Intn(len(names))],
			Profile: traffic.Default,
			SLA:     0.05 + 0.15*rng.Float64(),
		})
	}
	fmt.Printf("%-16s %6s %10s\n", "strategy", "NICs", "violations")
	for _, st := range []placement.Strategy{
		placement.Monopolization, placement.Greedy,
		placement.SLOMOAware, placement.YalaAware, placement.Oracle,
	} {
		res, err := ps.Place(seq, st)
		if err != nil {
			return err
		}
		fmt.Printf("%-16s %6d %10d\n", st, res.NICsUsed, res.Violations)
	}
	return nil
}

// cmdServe runs the online prediction service (internal/serve): models
// load lazily from -models, train on demand when absent, and requests
// arrive over HTTP/JSON.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8844", "listen address")
	models := fs.String("models", "", "model directory (persisted models; trained on demand when absent)")
	workers := fs.Int("workers", 0, "compute slots: requests predicting at once (0 = GOMAXPROCS)")
	cache := fs.Int("cache", 0, "prediction cache capacity (0 = default 8192, negative disables)")
	seed := fs.Uint64("seed", 1, "testbed and on-demand training seed")
	full := fs.Bool("full", false, "use the full offline training protocol for on-demand training (slow; default is the quick serving config)")
	tenants := fs.String("tenants", "", "tenant key file (JSON); mounts the multi-tenant admission gate")
	slo := fs.Duration("slo", 0, "admission-gate p99 latency objective (0 = default 250ms); size to the box and workload")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof profiling under /debug/pprof/")
	accessLog := fs.Bool("accesslog", false, "log one line per request (request ID, verb, status, latency, stage timings)")
	wireAddr := fs.String("wire", "", "also listen for the yalawire binary protocol on this address (e.g. :8845)")
	fs.Parse(args)
	if *models == "" {
		return fmt.Errorf("serve: -models is required")
	}
	if err := os.MkdirAll(*models, 0o755); err != nil {
		return err
	}
	gate, err := loadGate(*tenants, *slo)
	if err != nil {
		return err
	}

	reg := serve.RegistryConfig{Dir: *models, Seed: *seed}
	if *full {
		cfg := core.DefaultTrainConfig()
		cfg.Seed = *seed
		reg.Train = cfg
		sc := slomo.DefaultConfig()
		sc.Seed = *seed
		reg.SLOMO = sc
	}
	svc := serve.NewService(serve.ServiceConfig{
		Registry:     reg,
		Workers:      *workers,
		CacheEntries: *cache,
		AccessLog:    *accessLog,
		Gate:         gate,
	})
	defer svc.Close()

	// The service handler owns "/" (including GET /metrics); pprof, when
	// asked for, mounts on an outer mux so nothing ever reaches the
	// side-effect-registered http.DefaultServeMux.
	serveHandler := svc.Handler()
	handler := http.Handler(serveHandler)
	if *wireAddr != "" {
		wlis, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			return fmt.Errorf("serve: wire listener: %w", err)
		}
		// TypeCall tunneling goes through the bare service handler, not
		// the pprof-wrapped outer mux — the wire path never exposes
		// debug endpoints.
		ws := svc.ServeWire(wlis, serveHandler)
		defer ws.Close()
	}
	if *pprofOn {
		outer := http.NewServeMux()
		outer.Handle("/", handler)
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = outer
	}

	fmt.Printf("yala serve: listening on %s, models in %s\n", *addr, *models)
	fmt.Printf("  GET  /v2/models /v2/stats /v2/cluster/policies /healthz /metrics\n")
	fmt.Printf("  POST /v2/models:batchPredict /v2/models/{nf[@hw]}/{backend}:predict|:admit|:reload\n")
	fmt.Printf("       /v2/models/{nf[@hw]}:compare|:diagnose /v2/cluster/runs\n")
	if wa := svc.WireAddr(); wa != "" {
		fmt.Printf("  wire: yalawire binary listener on %s (advertised via /v2/stats wire_addr)\n", wa)
	}
	if *pprofOn {
		fmt.Printf("  pprof: /debug/pprof/ enabled\n")
	}
	return http.ListenAndServe(*addr, handler)
}

// cmdGateway runs the scale-out serving front end (internal/gateway):
// either spawn N in-process serve replicas sharing a model directory
// (single-binary operation) or route across externally managed replicas
// given by -backends. Traffic shards by (nf, hw, backend) rendezvous
// hashing with health-checked failover; reloads fan out to every
// replica; repeated deterministic scenarios serve from the edge cache.
func cmdGateway(args []string) error {
	fs := flag.NewFlagSet("gateway", flag.ExitOnError)
	addr := fs.String("addr", ":8860", "listen address")
	replicas := fs.Int("replicas", 0, "spawn this many in-process serve replicas")
	backends := fs.String("backends", "", "comma-separated external replica base URLs (alternative to -replicas)")
	models := fs.String("models", "", "model directory shared by in-process replicas (required with -replicas)")
	workers := fs.Int("workers", 0, "per-replica compute slots (0 = GOMAXPROCS)")
	cache := fs.Int("cache", 0, "per-replica prediction cache capacity (0 = default 8192, negative disables)")
	edge := fs.Int("edgecache", 0, "gateway edge response cache capacity (0 = default 8192, negative disables)")
	seed := fs.Uint64("seed", 1, "replica testbed and on-demand training seed")
	health := fs.Duration("health", 500*time.Millisecond, "replica health-check interval")
	accessLog := fs.Bool("accesslog", false, "log one line per gateway request (request ID, method, path, status, latency)")
	tenants := fs.String("tenants", "", "tenant key file (JSON); mounts the multi-tenant admission gate")
	slo := fs.Duration("slo", 0, "p99 latency objective for the admission gate and the elastic autoscaler (0 = default 250ms)")
	minReplicas := fs.Int("min", 0, "elastic pool: minimum in-process replicas (use with -max and -models)")
	maxReplicas := fs.Int("max", 0, "elastic pool: maximum in-process replicas; the pool autoscales between -min and -max")
	fs.Parse(args)

	gate, err := loadGate(*tenants, *slo)
	if err != nil {
		return err
	}

	// Elastic mode: the gateway owns its replica pool and autoscales it
	// between -min and -max under queue-depth/latency pressure.
	if *maxReplicas > 0 {
		if *models == "" {
			return fmt.Errorf("gateway: -models is required with -min/-max")
		}
		if *replicas > 0 || *backends != "" {
			return fmt.Errorf("gateway: -min/-max replaces -replicas/-backends")
		}
		if err := os.MkdirAll(*models, 0o755); err != nil {
			return err
		}
		gw, as, err := gateway.NewElastic(
			gateway.Config{
				HealthInterval:   *health,
				EdgeCacheEntries: *edge,
				AccessLog:        *accessLog,
				Gate:             gate,
			},
			serve.ServiceConfig{
				Registry:     serve.RegistryConfig{Dir: *models, Seed: *seed},
				Workers:      *workers,
				CacheEntries: *cache,
			},
			gateway.AutoscaleConfig{Min: *minReplicas, Max: *maxReplicas, P99SLO: *slo},
		)
		if err != nil {
			return err
		}
		defer gw.Close()
		defer as.Close()
		fmt.Printf("yala gateway: listening on %s, elastic pool %d..%d replicas (%d booted)\n",
			*addr, *minReplicas, *maxReplicas, as.Active())
		if gate != nil {
			fmt.Printf("  tenants: admission gate on (%d tenants incl. anonymous)\n", len(gate.Registry().Tenants()))
		}
		fmt.Printf("  routing: rendezvous on (nf, hw, backend); reloads fan out; GET /v2/gateway/stats /metrics\n")
		return http.ListenAndServe(*addr, gw.Handler())
	}

	var urls []string
	if *backends != "" {
		for _, u := range strings.Split(*backends, ",") {
			// Skip empties so a trailing comma doesn't register a
			// phantom, permanently dead replica.
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
	}
	var reps []*gateway.Replica
	if *replicas > 0 {
		if *models == "" {
			return fmt.Errorf("gateway: -models is required with -replicas")
		}
		if err := os.MkdirAll(*models, 0o755); err != nil {
			return err
		}
		var err error
		reps, err = gateway.SpawnReplicas(*replicas, serve.ServiceConfig{
			Registry:     serve.RegistryConfig{Dir: *models, Seed: *seed},
			Workers:      *workers,
			CacheEntries: *cache,
		})
		if err != nil {
			return err
		}
		defer gateway.CloseReplicas(reps)
		for _, rep := range reps {
			urls = append(urls, rep.URL)
		}
	}
	if len(urls) == 0 {
		return fmt.Errorf("gateway: need -replicas N or -backends url,url")
	}

	gw, err := gateway.New(gateway.Config{
		Backends:         urls,
		HealthInterval:   *health,
		EdgeCacheEntries: *edge,
		AccessLog:        *accessLog,
		Gate:             gate,
	})
	if err != nil {
		return err
	}
	defer gw.Close()
	// In-process replicas promote shadow models on their own drift
	// gates; fan each promotion out so peers reload and the edge cache
	// sheds stale responses.
	for _, rep := range reps {
		gw.WirePromote(rep)
	}
	fmt.Printf("yala gateway: listening on %s, %d replicas\n", *addr, len(urls))
	for i, u := range urls {
		fmt.Printf("  replica %d: %s\n", i, u)
	}
	if gate != nil {
		fmt.Printf("  tenants: admission gate on (%d tenants incl. anonymous)\n", len(gate.Registry().Tenants()))
	}
	fmt.Printf("  routing: rendezvous on (nf, hw, backend); reloads fan out; GET /v2/gateway/stats /metrics\n")
	return http.ListenAndServe(*addr, gw.Handler())
}

// loadGate builds the multi-tenant admission gate from a -tenants key
// file; "" means no gate (the pre-tenancy behavior, no admission
// control at all). slo overrides the gate's p99 objective when > 0.
func loadGate(path string, slo time.Duration) (*tenant.Gate, error) {
	if path == "" {
		return nil, nil
	}
	reg, err := tenant.Load(path)
	if err != nil {
		return nil, err
	}
	return tenant.NewGate(reg, tenant.GateConfig{P99SLO: slo}), nil
}

// cmdLoadgen replays randomized arrival scenarios against a live server.
// It exits nonzero when the run recorded any transport or server error,
// so CI can gate on it.
func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	url := fs.String("url", "http://localhost:8844", "server base URL")
	n := fs.Int("n", 20000, "total request count")
	c := fs.Int("c", 8, "concurrent client workers")
	profiles := fs.Int("profiles", 4, "distinct traffic-profile pool size (small = warm cache)")
	batch := fs.Int("batch", 1, "scenarios per Predict round trip (/v2/models:batchPredict)")
	maxComp := fs.Int("maxcomp", 3, "max competitors per scenario")
	nfs := fs.String("nfs", "", "comma-separated NF pool (default: a standard mix)")
	compare := fs.Float64("compare", 0, "fraction of Compare requests")
	diagnose := fs.Float64("diagnose", 0, "fraction of Diagnose requests")
	admit := fs.Float64("admit", 0, "fraction of Admit requests")
	ingest := fs.Float64("ingest", 0, "fraction of requests that predict solo and Ingest the result back as a ground-truth measurement")
	ingestShift := fs.Float64("ingestshift", 1, "scale ingested measurements by this factor (a sustained shift away from 1 trips the server's drift gate)")
	seed := fs.Uint64("seed", 1, "scenario seed")
	gw := fs.Bool("gateway", false, "the URL is a yala gateway: report per-replica distribution and edge-cache counters")
	tenantsN := fs.Int("tenants", 0, "multi-tenant mode: simulate n tenants with keys tenant-0..tenant-(n-1)")
	tenantKeys := fs.String("tenant-keys", "", "multi-tenant mode: comma-separated explicit API keys (overrides -tenants)")
	hot := fs.Int("hot", -1, "index of the hostile flooder among the tenants (unpaced; -1 = none)")
	quietRPS := fs.Float64("quietrps", 20, "paced request rate per non-hot tenant")
	wireAddr := fs.String("wire", "", "server's yalawire address: route Predict/PredictBatch over the binary protocol")
	wireFloor := fs.Bool("wirefloor", false, "measure the raw yalawire echo floor instead of a serving run (requires -wire; uses -n/-c); against a loopback -wire on Linux, the floor of the same-host Unix socket wire clients move to")
	jsonPath := fs.String("json", "", "write the machine-readable report to this path")
	fs.Parse(args)

	// -wirefloor is a pure transport measurement: TypeEcho frames with a
	// predict-request-sized payload, no gate, cache, or prediction in the
	// path. It bounds what any serving run over the same transport can do.
	if *wireFloor {
		if *wireAddr == "" {
			return fmt.Errorf("loadgen: -wirefloor requires -wire")
		}
		rep, err := loadgen.WireEchoFloor(*wireAddr, *c, *n, 256)
		if rep.Frames > 0 {
			fmt.Println(rep)
		}
		if *jsonPath != "" {
			bench := struct {
				Kind   string                  `json:"kind"`
				Report loadgen.WireFloorReport `json:"report"`
			}{Kind: "wirefloor", Report: rep}
			if werr := writeJSONFile(*jsonPath, bench); werr != nil {
				return werr
			}
		}
		return err
	}

	cfg := loadgen.Config{
		URL:            *url,
		Workers:        *c,
		Requests:       *n,
		Seed:           *seed,
		Profiles:       *profiles,
		Batch:          *batch,
		MaxCompetitors: *maxComp,
		CompareFrac:    *compare,
		DiagnoseFrac:   *diagnose,
		AdmitFrac:      *admit,
		IngestFrac:     *ingest,
		IngestShift:    *ingestShift,
		Gateway:        *gw,
		HotTenant:      *hot,
		QuietRPS:       *quietRPS,
		WireAddr:       *wireAddr,
	}
	if *tenantKeys != "" {
		for _, k := range strings.Split(*tenantKeys, ",") {
			cfg.TenantKeys = append(cfg.TenantKeys, strings.TrimSpace(k))
		}
	} else {
		for i := 0; i < *tenantsN; i++ {
			cfg.TenantKeys = append(cfg.TenantKeys, fmt.Sprintf("tenant-%d", i))
		}
	}
	if *hot >= len(cfg.TenantKeys) {
		return fmt.Errorf("loadgen: -hot %d is out of range for %d tenants", *hot, len(cfg.TenantKeys))
	}
	if *nfs != "" {
		for _, name := range strings.Split(*nfs, ",") {
			cfg.NFs = append(cfg.NFs, strings.TrimSpace(name))
		}
	}
	rep, runErr := loadgen.Run(cfg)
	// A partially failed run still carries the measurement of everything
	// that succeeded — print and persist the report before surfacing the
	// error.
	if rep.Requests > 0 {
		fmt.Println(rep)
	}
	if *jsonPath != "" {
		bench := struct {
			Kind   string         `json:"kind"`
			Config loadgen.Config `json:"config"`
			Report loadgen.Report `json:"report"`
		}{Kind: "loadgen", Config: cfg, Report: rep}
		if err := writeJSONFile(*jsonPath, bench); err != nil {
			return err
		}
	}
	if runErr != nil {
		return runErr
	}
	// Belt and braces for the CI gate: never exit 0 with recorded errors,
	// even if the error path above missed them.
	if rep.Errors > 0 {
		return fmt.Errorf("loadgen: %d/%d requests failed", rep.Errors, rep.Requests)
	}
	if total := rep.Cache.Hits + rep.Cache.Misses; total > 0 {
		fmt.Printf("server      cache hit rate %.1f%% this run (%d entries)\n",
			100*float64(rep.Cache.Hits)/float64(total), rep.Cache.Entries)
	}
	return nil
}

// scenarioFlags registers the fleet-scenario flags shared by `yala
// cluster` and `yala trace record`, returning a resolver that builds the
// scenario after fs.Parse.
func scenarioFlags(fs *flag.FlagSet) func() (cluster.Scenario, error) {
	nics := fs.Int("nics", 16, "fleet size (NIC count; ignored when -classes is set)")
	classes := fs.String("classes", "", "heterogeneous fleet spec: comma-separated class:count[:cores] (classes: "+strings.Join(cluster.ClassNames(), ", ")+")")
	workload := fs.String("workload", cluster.WorkloadChurn, "workload generator: "+strings.Join(cluster.Workloads(), ", "))
	arrivals := fs.Int("arrivals", 120, "NF arrival count")
	seed := fs.Uint64("seed", 1, "scenario and testbed seed")
	nfs := fs.String("nfs", "", "comma-separated NF pool (default: a standard mix)")
	profiles := fs.Int("profiles", 4, "traffic-profile pool size")
	drift := fs.Float64("drift", cluster.DefaultDriftProb, "per-tenant traffic-drift probability")
	iat := fs.Float64("iat", 1, "mean inter-arrival time (s)")
	meanlife := fs.Float64("meanlife", 40, "mean tenant lifetime (s)")
	slaLo := fs.Float64("slalo", 0.05, "SLA lower bound (max tolerated throughput drop)")
	slaHi := fs.Float64("slahi", 0.2, "SLA upper bound")
	shiftAt := fs.Float64("shiftat", 0, "apply a mid-run hardware shift at this time (0: none)")
	shiftScale := fs.Float64("shiftscale", 0, "frequency scale of the mid-run shift (requires -shiftat)")
	online := fs.Bool("online", false, "close the feedback loop: drift-gate enforcement measurements, retrain and promote mid-run")
	return func() (cluster.Scenario, error) {
		sc := cluster.Scenario{
			NICs:         *nics,
			Workload:     *workload,
			Arrivals:     *arrivals,
			Seed:         *seed,
			Profiles:     *profiles,
			MeanIAT:      *iat,
			MeanLifetime: *meanlife,
			DriftProb:    *drift,
			SLALo:        *slaLo,
			SLAHi:        *slaHi,
			ShiftAt:      *shiftAt,
			ShiftScale:   *shiftScale,
			Online:       *online,
		}
		if *classes != "" {
			specs, err := parseClasses(*classes)
			if err != nil {
				return cluster.Scenario{}, err
			}
			sc.Classes = specs
		}
		if *nfs != "" {
			for _, name := range strings.Split(*nfs, ",") {
				sc.NFs = append(sc.NFs, strings.TrimSpace(name))
			}
		}
		sc = sc.WithDefaults()
		return sc, sc.Validate()
	}
}

// parseClasses parses the -classes spec: class:count[:cores], comma
// separated, e.g. "bluefield2:12,pensando:4" or "bluefield2:8:4".
func parseClasses(spec string) ([]cluster.ClassSpec, error) {
	var out []cluster.ClassSpec
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("classes: %q is not class:count[:cores]", part)
		}
		cs := cluster.ClassSpec{Class: fields[0]}
		var err error
		if cs.Count, err = strconv.Atoi(fields[1]); err != nil {
			return nil, fmt.Errorf("classes: bad count in %q", part)
		}
		if len(fields) == 3 {
			if cs.Cores, err = strconv.Atoi(fields[2]); err != nil {
				return nil, fmt.Errorf("classes: bad cores in %q", part)
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// parsePolicies splits a -policies flag value.
func parsePolicies(spec string) []string {
	var out []string
	if spec != "" {
		for _, p := range strings.Split(spec, ",") {
			out = append(out, strings.TrimSpace(p))
		}
	}
	return out
}

// cmdCluster runs a fleet-orchestration scenario and prints the policy
// comparison (internal/cluster). By default the run executes locally,
// with models from a serve.ModelRegistry — loaded from -models (or
// quick-trained on demand) exactly once per (class, NF) across all
// compared policies. With -url the scenario is submitted to a running
// `yala serve` through the pkg/yalaclient SDK (/v2/cluster/runs)
// instead — the remote path, sharing the server's registry and caches.
func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	scenario := scenarioFlags(fs)
	policies := fs.String("policies", "", "comma-separated policies to compare (default: all)")
	models := fs.String("models", "", "model directory (persisted models; quick-trained on demand when absent or empty)")
	url := fs.String("url", "", "run remotely on this yala serve base URL instead of locally")
	jsonPath := fs.String("json", "", "write the machine-readable comparison to this path")
	fs.Parse(args)

	sc, err := scenario()
	if err != nil {
		return err
	}
	if *url != "" {
		return clusterRemote(*url, sc, parsePolicies(*policies), *jsonPath)
	}
	if *models != "" {
		if err := os.MkdirAll(*models, 0o755); err != nil {
			return err
		}
	}
	reg := serve.NewRegistry(serve.RegistryConfig{Dir: *models, Seed: sc.Seed})
	env := cluster.NewEnv(nicsim.BlueField2(), sc.Seed, reg)
	fmt.Printf("cluster: %d NICs, %d %s arrivals, NF pool %v (models %s)\n",
		sc.NICs, sc.Arrivals, sc.Workload, sc.NFs, modelSourceDesc(*models))
	cmp, err := cluster.Run(context.Background(), env, sc, parsePolicies(*policies))
	if err != nil {
		return err
	}
	fmt.Println(cmp.Table())
	if *jsonPath != "" {
		return writeJSONFile(*jsonPath, cmp)
	}
	return nil
}

// clusterRemote submits the scenario to a running server through the
// SDK and renders the returned comparison exactly like a local run.
func clusterRemote(url string, sc cluster.Scenario, policies []string, jsonPath string) error {
	params := yalaclient.ClusterRunParams{
		NICs:         sc.NICs,
		Workload:     sc.Workload,
		Arrivals:     sc.Arrivals,
		Seed:         sc.Seed,
		NFs:          sc.NFs,
		Policies:     policies,
		Profiles:     sc.Profiles,
		MeanIAT:      sc.MeanIAT,
		MeanLifetime: sc.MeanLifetime,
		DriftProb:    &sc.DriftProb,
		SLALo:        sc.SLALo,
		SLAHi:        sc.SLAHi,
		ShiftAt:      sc.ShiftAt,
		ShiftScale:   sc.ShiftScale,
		Online:       sc.Online,
	}
	for _, cs := range sc.Classes {
		params.Classes = append(params.Classes, yalaclient.ClassSpec{Class: cs.Class, Count: cs.Count, Cores: cs.Cores})
	}
	fmt.Printf("cluster: %d NICs, %d %s arrivals, NF pool %v (remote: %s)\n",
		sc.NICs, sc.Arrivals, sc.Workload, sc.NFs, url)
	result, err := yalaclient.New(url).ClusterRun(context.Background(), params)
	if err != nil {
		return err
	}
	// The SDK result is wire-shape compatible with the orchestrator's
	// comparison; round-trip through JSON to reuse its table renderer.
	raw, err := json.Marshal(result)
	if err != nil {
		return err
	}
	var cmp cluster.Comparison
	if err := json.Unmarshal(raw, &cmp); err != nil {
		return err
	}
	fmt.Println(cmp.Table())
	if jsonPath != "" {
		return writeJSONFile(jsonPath, cmp)
	}
	return nil
}

// cmdTrace records and replays fleet workload traces (internal/trace):
// `record` freezes a scenario's full tenant stream into a versioned
// JSONL file, `replay` runs a recorded stream through the policy
// comparison — reproducing a recorded run event for event.
func cmdTrace(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("trace: want `yala trace record` or `yala trace replay`")
	}
	switch args[0] {
	case "record":
		return cmdTraceRecord(args[1:])
	case "replay":
		return cmdTraceReplay(args[1:])
	}
	return fmt.Errorf("trace: unknown subcommand %q (want record or replay)", args[0])
}

func cmdTraceRecord(args []string) error {
	fs := flag.NewFlagSet("trace record", flag.ExitOnError)
	scenario := scenarioFlags(fs)
	out := fs.String("out", "", "output trace file (JSONL); required")
	fs.Parse(args)
	sc, err := scenario()
	if err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("trace record: -out is required")
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	tr, err := trace.Record(f, sc)
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded %d %s arrivals over %s to %s\n",
		len(tr.Stream), tr.Scenario.Workload, tr.Scenario.FleetDesc(), *out)
	return nil
}

func cmdTraceReplay(args []string) error {
	fs := flag.NewFlagSet("trace replay", flag.ExitOnError)
	in := fs.String("in", "", "input trace file (from `yala trace record`); required")
	policies := fs.String("policies", "", "comma-separated policies to compare (default: all)")
	models := fs.String("models", "", "model directory (persisted models; quick-trained on demand when absent or empty)")
	jsonPath := fs.String("json", "", "write the machine-readable comparison to this path")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("trace replay: -in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	tr, err := trace.Decode(f)
	f.Close()
	if err != nil {
		return err
	}
	if *models != "" {
		if err := os.MkdirAll(*models, 0o755); err != nil {
			return err
		}
	}
	reg := serve.NewRegistry(serve.RegistryConfig{Dir: *models, Seed: tr.Scenario.Seed})
	env := cluster.NewEnv(nicsim.BlueField2(), tr.Scenario.Seed, reg)
	fmt.Printf("replay: %d arrivals over %s from %s (models %s)\n",
		len(tr.Stream), tr.Scenario.FleetDesc(), *in, modelSourceDesc(*models))
	cmp, err := cluster.RunStream(context.Background(), env, tr.Scenario, tr.Stream, parsePolicies(*policies))
	if err != nil {
		return err
	}
	fmt.Println(cmp.Table())
	if *jsonPath != "" {
		return writeJSONFile(*jsonPath, cmp)
	}
	return nil
}

func modelSourceDesc(dir string) string {
	if dir == "" {
		return "quick-trained in memory"
	}
	return "loaded from " + dir
}

// writeJSONFile writes v as indented JSON — the machine-readable output
// behind the -json flags.
func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
