package tenant

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// StatusClientClosedRequest is the non-standard 499 status (the nginx
// convention) a front door answers when the *client* abandoned the
// request — its context was canceled before a response could be sent.
// It is neither a success nor a server error; Admission.Done excludes
// it from SLO accounting entirely.
const StatusClientClosedRequest = 499

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

// gateRecorder captures the status for SLO accounting.
type gateRecorder struct {
	http.ResponseWriter
	status int
}

func (r *gateRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
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
		a := g.Enter(KeyFromRequest(r), ClassifyPath(r.URL.Path))
		if !a.OK {
			if a.RateLimited && g.cfg.ShedDelay > 0 {
				// Tarpit: stall the refusal so an unpaced keep-alive
				// abuser is bounded by ShedDelay per connection, not by
				// how fast the server can write 429s.
				select {
				case <-time.After(g.cfg.ShedDelay):
				case <-r.Context().Done():
				}
			}
			writeRefusal(w, r, a.Decision)
			return
		}
		rec := &gateRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		a.Done(rec.status)
	})
}

// refusalBody is the /v2 structured error envelope (the same wire shape
// internal/serve's writeErrorV2 emits; duplicated here because serve
// imports tenant, not the other way around — the contract test in serve
// pins both to one fixture).
type refusalBody struct {
	Error struct {
		Code      string `json:"code"`
		Message   string `json:"message"`
		RequestID string `json:"request_id,omitempty"`
	} `json:"error"`
}

// writeRefusal answers a shed or unauthenticated request: the /v2 error
// envelope, plus a Retry-After header (whole seconds, rounded up, min
// 1) on 429s so clients back off by the bucket's actual refill time.
func writeRefusal(w http.ResponseWriter, r *http.Request, d Decision) {
	if d.RetryAfter > 0 {
		secs := int(math.Ceil(d.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	var body refusalBody
	body.Error.Code = d.Code
	body.Error.Message = d.Message
	if tr := obs.FromContext(r.Context()); tr != nil {
		body.Error.RequestID = tr.ID
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(d.Status)
	json.NewEncoder(w).Encode(body)
}
