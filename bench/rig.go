package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/backend"
	"repro/internal/serve"
	"repro/pkg/yalaclient"
)

// rig is one serve.Service behind both of its front doors on loopback —
// the yalawire listener the timed clients use and the /v2 HTTP handler
// the verifier cross-checks against — plus one SDK client per
// load-generating goroutine.
type rig struct {
	svc     *serve.Service
	ws      *serve.WireServer
	srv     *http.Server
	url     string
	clients []*yalaclient.Client
	// loadMS is the mean time to load one persisted model; warmS is how
	// long the workload's cache warm-up took.
	loadMS, warmS float64
}

func bootRig(cfg *config, nfs []string) (*rig, error) {
	r := &rig{svc: serve.NewService(cfg.service())}
	wlis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.svc.Close()
		return nil, err
	}
	hlis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		wlis.Close()
		r.svc.Close()
		return nil, err
	}
	handler := r.svc.Handler()
	r.ws = r.svc.ServeWire(wlis, handler)
	r.srv = &http.Server{Handler: handler}
	go r.srv.Serve(hlis)
	r.url = "http://" + hlis.Addr().String()
	for i := 0; i < cfg.Clients; i++ {
		r.clients = append(r.clients, yalaclient.New(r.url, yalaclient.WithWire(r.ws.Addr())))
	}
	if r.loadMS, err = loadModels(r.svc, nfs); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// loadModels pulls each NF's model into the service's registry and
// returns the mean load time in milliseconds.
func loadModels(svc *serve.Service, nfs []string) (float64, error) {
	t0 := time.Now()
	for _, nf := range nfs {
		if _, err := svc.Registry().Model(backend.DefaultName, nf); err != nil {
			return 0, fmt.Errorf("loading %s: %w", nf, err)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6 / float64(len(nfs)), nil
}

func (r *rig) close() {
	for _, c := range r.clients {
		c.Close()
	}
	r.srv.Close()
	r.ws.Close()
	r.svc.Close()
}

func (r *rig) setup(rows map[string]float64) {
	rows["backend.load_ms"] = r.loadMS
	rows["testbed.solo_warm_s"] = r.warmS
}

// predictAll answers every scenario once over the rig's wire clients,
// spread across them — the cache warm-up and the verifier's sample pass.
func (r *rig) predictAll(scs []scenario) ([]yalaclient.PredictResult, error) {
	out := make([]yalaclient.PredictResult, len(scs))
	return out, parallel(len(r.clients), len(scs), func(c, i int) (err error) {
		out[i], err = r.clients[c].Predict(context.Background(), scs[i].model(), "", scs[i].params())
		return err
	})
}

// predictOp is the timed op both serving workloads issue: one Predict
// over the wire, answered with a usable throughput.
func (r *rig) predictOp(client int, s scenario) error {
	res, err := r.clients[client].Predict(context.Background(), s.model(), "", s.params())
	if err != nil {
		return err
	}
	if res.NF != s.NF || !(res.PredictedPPS > 0) {
		return fmt.Errorf("predict %s: implausible answer %s", s.NF, flat(res))
	}
	if !r.clients[client].WireActive() {
		return fmt.Errorf("predict %s: client fell back from the wire transport", s.NF)
	}
	return nil
}

// serveCounters sums the cumulative exports of one or more services:
// cache and per-transport request counters, and every pipeline stage's
// histogram sum and count.
func serveCounters(svcs ...*serve.Service) map[string]float64 {
	c := map[string]float64{}
	for _, svc := range svcs {
		st := svc.Stats()
		c["cache.hits"] += float64(st.Cache.Hits)
		c["cache.misses"] += float64(st.Cache.Misses)
		c["cache.evictions"] += float64(st.Cache.Evictions)
		c["feedback.trips"] += float64(svc.Feedback().Stats().Trips)
		exp := scrape(svc.Obs())
		c["req.wire"] += counterSum(exp, "yala_requests_total", `transport="wire"`)
		c["req.http"] += counterSum(exp, "yala_requests_total", `transport="http"`)
		for _, stage := range []string{"decode", "cache", "predict", "encode"} {
			sum, n := histTotals(exp, "yala_stage_seconds", `stage="`+stage+`"`)
			c["stage."+stage+".sum"] += sum
			c["stage."+stage+".n"] += n
		}
	}
	return c
}

// serveLayers turns a serveCounters delta into the serve.* rows.
func serveLayers(d map[string]float64, rows map[string]float64) {
	for _, stage := range []string{"decode", "cache", "predict", "encode"} {
		rows["serve.stage_"+stage+"_us"] = 1e6 * ratio(d["stage."+stage+".sum"], d["stage."+stage+".n"])
	}
	rows["serve.requests_wire"] = d["req.wire"]
	rows["serve.requests_http"] = d["req.http"]
	rows["serve.cache_hit_ratio"] = ratio(d["cache.hits"], d["cache.hits"]+d["cache.misses"])
	rows["serve.cache_evictions"] = d["cache.evictions"]
	rows["feedback.trips"] = d["feedback.trips"]
}
