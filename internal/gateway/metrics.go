package gateway

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// initObs builds the gateway's own metric registry: routing counters
// the proxy paths already maintain as atomics, edge-cache state, and
// fleet-size gauges. Per-replica series register per attachment
// (registerEndpointObs) since the fleet is dynamic.
func (g *Gateway) initObs() {
	r := obs.NewRegistry()
	g.obs = r
	r.CounterFunc("gateway_requests_total", g.requests.Load)
	r.CounterFunc("gateway_retries_total", g.retries.Load)
	r.CounterFunc("gateway_fanouts_total", g.fanouts.Load)
	r.CounterFunc("gateway_coalesced_total", g.coalesced.Load)
	// gateway_-prefixed (not yala_) so the family never collides with
	// the replicas' own yala_client_canceled_total in the merged
	// exposition below.
	r.CounterFunc("gateway_client_canceled_total", g.canceled.Load)
	r.CounterFunc("gateway_edge_hits_total", g.edge.Hits)
	r.CounterFunc("gateway_edge_misses_total", g.edge.Misses)
	r.CounterFunc("gateway_edge_evictions_total", g.edge.Evictions)
	r.GaugeFunc("gateway_edge_entries", func() float64 { return float64(g.edge.Len()) })
	r.GaugeFunc("gateway_replicas_attached", func() float64 { return float64(g.attachedCount()) })
	r.GaugeFunc("gateway_inflight_requests", func() float64 { return float64(g.inflight.Load()) })
	g.reqSeconds = r.Histogram("gateway_request_seconds", nil)
}

// registerEndpointObs exposes one attachment's series, labeled by the
// replica URL — the operator-facing identity. The up gauge reports 0
// once the endpoint is detached (its slot moved on), so a superseded
// URL reads as a down target rather than mirroring its successor.
func (g *Gateway) registerEndpointObs(rep *replica, ep *endpoint) {
	r := g.obs
	r.GaugeFunc("gateway_replica_up", func() float64 {
		if rep.ep.Load() == ep && rep.healthy.Load() {
			return 1
		}
		return 0
	}, "replica", ep.url)
	r.CounterFunc("gateway_replica_requests_total", ep.requests.Load, "replica", ep.url)
	r.CounterFunc("gateway_replica_errors_total", ep.errors.Load, "replica", ep.url)
	r.CounterFunc("gateway_replica_fanouts_total", ep.fanouts.Load, "replica", ep.url)
	ep.upstream = r.Histogram("gateway_upstream_seconds", nil, "replica", ep.url)
}

// Obs exposes the gateway's metric registry.
func (g *Gateway) Obs() *obs.Registry { return g.obs }

// promContentType is the Prometheus text exposition media type.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// aggregationRule decides how one replica-exported family merges across
// the fleet: counters and histogram components sum; uptime reports the
// oldest replica's and start time the earliest — summing either would
// fabricate a server older than the fleet.
func aggregationRule(family string) obs.MergeRule {
	switch family {
	case "yala_uptime_seconds":
		return obs.MergeMax
	case "yala_start_time_seconds":
		return obs.MergeMin
	}
	return obs.MergeSum
}

// handleMetrics serves GET /metrics: the gateway's own gateway_* series
// followed by the replicas' yala_* series aggregated across the fleet
// (summed, except the uptime/start-time gauges per aggregationRule).
// Replica scrapes are concurrent and best-effort — a replica that fails
// to answer is simply absent from this scrape, like a down target in
// any Prometheus fleet.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", promContentType)
	g.obs.WriteProm(w)
	merged := obs.MergeExpositions(g.scrapeReplicas(r.Context()), aggregationRule)
	merged.Render(w)
}

// scrapeReplicas fetches and parses every healthy replica's /metrics.
// The read is fetch's, bounded by api.MaxBodyBytes: a replica whose
// exposition runs past the cap is left out like a failed scrape.
func (g *Gateway) scrapeReplicas(ctx context.Context) []*obs.Exposition {
	exps := make([]*obs.Exposition, len(g.replicas))
	each(g.replicas, func(i int, rep *replica, ep *endpoint) {
		if !rep.healthy.Load() {
			return
		}
		body, err := g.fetch(ctx, ep, "/metrics")
		if err != nil {
			return
		}
		if exp, err := obs.ParseExposition(bytes.NewReader(body)); err == nil {
			exps[i] = exp
		}
	})
	return exps
}

// withObs is the gateway's request middleware: it adopts the client's
// X-Request-Id (or generates a gw- one), carries it in the request
// context as an obs trace so send() can forward it upstream — one ID
// then names the request at the client, the gateway and the replica —
// and records overall gateway latency plus the optional access log.
func (g *Gateway) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := api.AdoptRequestID(r.Header.Get("X-Request-Id"))
		if rid == "" {
			rid = fmt.Sprintf("gw-%06d", g.ridCounter.Add(1))
		}
		w.Header().Set("X-Request-Id", rid)
		tr := obs.NewTrace(rid)
		rec := api.RecordStatus(w)
		g.inflight.Add(1)
		start := time.Now()
		next.ServeHTTP(rec, r.WithContext(obs.ContextWithTrace(r.Context(), tr)))
		dur := time.Since(start)
		g.inflight.Add(-1)
		if rec.Status == api.StatusClientClosedRequest {
			g.canceled.Add(1)
		}
		g.reqSeconds.Observe(dur.Seconds())
		if g.cfg.AccessLog {
			log.Printf("gateway: rid=%s method=%s path=%s status=%d dur=%s",
				rid, r.Method, r.URL.Path, rec.Status, dur.Round(time.Microsecond))
		}
	})
}
