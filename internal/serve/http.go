package serve

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/api"
)

// Handler exposes the service over HTTP/JSON: the resource-oriented,
// versioned /v2 API (httpv2.go; the route list and the contract are in
// internal/api's package comment), GET /healthz and GET /metrics. The
// flat /v1 surface was removed in PR 13; its paths answer the same
// structured 404 as any other unknown route.
//
// Every error path — including unknown routes and wrong methods —
// returns the structured /v2 envelope (code, message, request ID).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	s.registerV2(mux)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Unknown paths get a structured 404 instead of net/http's plain
	// text; the request ID tags every response for cross-log correlation.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, r, http.StatusNotFound, api.CodeNotFound,
			fmt.Sprintf("no such endpoint %s %s", r.Method, r.URL.Path))
	})
	var h http.Handler = mux
	if s.cfg.Gate != nil {
		// The admission gate sits inside withObs — its 429/401 envelopes
		// carry the request ID the trace middleware minted — and outside
		// the business mux, so shed requests never take a compute slot.
		h = s.cfg.Gate.Middleware(h)
	}
	return s.withObs(h)
}

// withObs is the HTTP end of the request lifecycle: it opens the
// request (adopting the client's X-Request-Id), echoes the ID on the
// response, and observes the request once the handler has written its
// answer. Requests tunneled off the wire listener (TypeCall dispatch)
// carry a context marker so the transport split stays honest even
// though they run this same handler.
func (s *Service) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tunneled := r.Context().Value(wireTransportKey{}) != nil
		rq := s.beginRequest(r.Context(), tunneled, r.Header.Get("X-Request-Id"), time.Now())
		w.Header().Set("X-Request-Id", rq.tr.ID)
		rec := api.RecordStatus(w)
		next.ServeHTTP(rec, r.WithContext(rq.ctx))
		s.endRequest(rq, r.Method, r.URL.Path, rec.Status, time.Now())
	})
}
