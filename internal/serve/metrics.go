package serve

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// stageNames are the request pipeline stages the span instrumentation
// records. Their histogram series are pre-registered so /metrics
// exposes every stage (zero-valued) from the first scrape, before any
// traffic arrives.
var stageNames = []string{"decode", "cache", "predict", "encode"}

// initObs builds the service's metric registry. Counters the request
// paths already maintain as atomics (per-verb totals, errors, cache
// stats) are exposed through read-at-scrape funcs rather than being
// double counted into a second atomic; only histograms are new state.
func (s *Service) initObs() {
	r := obs.NewRegistry()
	s.obs = r
	r.CounterFunc("yala_requests_total", s.predicts.Load, "verb", "predict")
	r.CounterFunc("yala_requests_total", s.compares.Load, "verb", "compare")
	r.CounterFunc("yala_requests_total", s.admits.Load, "verb", "admit")
	r.CounterFunc("yala_requests_total", s.diagnoses.Load, "verb", "diagnose")
	r.CounterFunc("yala_requests_total", s.clusterRuns.Load, "verb", "cluster_run")
	r.CounterFunc("yala_requests_total", s.ingests.Load, "verb", "ingest")
	r.CounterFunc("yala_requests_total", s.httpRequests.Load, "transport", "http")
	r.CounterFunc("yala_requests_total", s.wireRequests.Load, "transport", "wire")
	r.CounterFunc("yala_wire_connections_total", s.wireConnsTCP.Load, "network", "tcp")
	r.CounterFunc("yala_wire_connections_total", s.wireConnsUnix.Load, "network", "unix")
	r.CounterFunc("yala_request_errors_total", s.errors.Load)
	r.CounterFunc("yala_client_canceled_total", s.canceled.Load)
	r.CounterFunc("yala_cache_hits_total", s.cache.Hits)
	r.CounterFunc("yala_cache_misses_total", s.cache.Misses)
	r.CounterFunc("yala_cache_evictions_total", s.cache.Evictions)
	r.GaugeFunc("yala_cache_entries", func() float64 { return float64(s.cache.Len()) })
	r.GaugeFunc("yala_queue_depth", func() float64 { return float64(s.computeSlots.waiting.Load()) })
	r.GaugeFunc("yala_workers", func() float64 { return float64(s.cfg.Workers) })
	r.GaugeFunc("yala_uptime_seconds", func() float64 { return time.Since(s.started).Seconds() })
	r.GaugeFunc("yala_start_time_seconds", func() float64 { return float64(s.started.Unix()) })
	// Online-feedback series: the drift gate's decision stream and the
	// candidate lifecycle, read at scrape from the controller's counters.
	r.CounterFunc("yala_drift_observations_total", func() uint64 { return s.fb.Stats().Observations })
	r.CounterFunc("yala_drift_quarantined_total", func() uint64 { return s.fb.Stats().Quarantined })
	r.CounterFunc("yala_drift_holds_total", func() uint64 { return s.fb.Stats().Holds })
	r.CounterFunc("yala_drift_trips_total", func() uint64 { return s.fb.Stats().Trips })
	r.CounterFunc("yala_drift_retrains_total", func() uint64 { return s.fb.Stats().Retrains })
	r.CounterFunc("yala_drift_shadow_samples_total", func() uint64 { return s.fb.Stats().ShadowSamples })
	r.CounterFunc("yala_drift_shadow_compares_total", func() uint64 { return s.fb.Stats().ShadowCompares })
	r.CounterFunc("yala_drift_promotions_total", func() uint64 { return s.fb.Stats().Promotions })
	s.reqSeconds = r.Histogram("yala_request_seconds", nil)
	s.soloSeconds = r.Histogram("yala_solo_measure_seconds", nil)
	s.soloFlows = r.Counter("yala_solo_measure_flows_total")
	s.stageHist = make(map[string]*obs.Histogram, len(stageNames))
	for _, st := range stageNames {
		s.stageHist[st] = r.Histogram("yala_stage_seconds", nil, "stage", st)
	}
}

// stageHistogram returns the stage's latency histogram; unknown stage
// names fall back to a registry get-or-create so a future span name
// cannot drop observations.
func (s *Service) stageHistogram(name string) *obs.Histogram {
	if h, ok := s.stageHist[name]; ok {
		return h
	}
	return s.obs.Histogram("yala_stage_seconds", nil, "stage", name)
}

// Obs exposes the service's metric registry — the embedding hook for
// components (the cluster scheduler) that publish into the server's
// exposition.
func (s *Service) Obs() *obs.Registry { return s.obs }

// promContentType is the Prometheus text exposition media type.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", promContentType)
	s.obs.WriteProm(w)
}
