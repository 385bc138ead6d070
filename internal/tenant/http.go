package tenant

import (
	"net/http"
	"strings"
	"time"

	"repro/internal/api"
)

// KeyFromRequest extracts the API key: `Authorization: Bearer <key>`
// wins, then `X-API-Key`; "" means anonymous.
func KeyFromRequest(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		const prefix = "Bearer "
		if len(auth) > len(prefix) && strings.EqualFold(auth[:len(prefix)], prefix) {
			return strings.TrimSpace(auth[len(prefix):])
		}
	}
	return strings.TrimSpace(r.Header.Get("X-API-Key"))
}

// ClassifyPath maps a request path to its priority class: batch and
// cluster endpoints are bulk, everything else interactive.
func ClassifyPath(path string) Class {
	if strings.HasSuffix(path, ":batchPredict") || strings.HasPrefix(path, "/v2/cluster/runs") {
		return ClassBulk
	}
	return ClassInteractive
}

// exempt lists paths the gate never touches: health probes, metric
// scrapes, profiling, and the gateway's own control surface. Shedding a
// health check would flap the fleet; shedding /metrics would blind the
// operator exactly when the data matters.
func exempt(path string) bool {
	switch path {
	case "/healthz", "/metrics", "/v2/gateway/stats":
		return true
	}
	return strings.HasPrefix(path, "/debug/pprof")
}

// Middleware returns the admission handler wrapping next. Mount it
// inside the observability middleware (withObs) so refusals carry the
// request ID in the envelope, and outside the business mux so shed
// requests never reach a worker.
func (g *Gate) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if exempt(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		a := g.Enter(KeyFromRequest(r), ClassifyPath(r.URL.Path), time.Now())
		if !a.OK {
			if a.RateLimited {
				// Tarpit: stall the refusal so an unpaced keep-alive
				// abuser is bounded by shedDelay per connection, not by
				// how fast the server can write 429s.
				select {
				case <-time.After(shedDelay):
				case <-r.Context().Done():
				}
			}
			// The /v2 envelope, plus Retry-After on 429s so clients back
			// off by the bucket's actual refill time.
			api.SetRetryAfter(w, a.RetryAfter)
			api.WriteError(w, r, a.Status, a.Code, a.Message)
			return
		}
		rec := api.RecordStatus(w)
		next.ServeHTTP(rec, r)
		a.Done(rec.Status, time.Now())
	})
}
