package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// This file is the request lifecycle both front doors share. HTTP/JSON
// (withObs, the /v2 handlers) and yalawire (serveTyped) are codecs at
// its two ends: each calls beginRequest, admits through the tenant
// gate's Enter/Done, maps service errors with errorStatus, and calls
// endRequest once the response has been encoded — handed to the
// ResponseWriter, or appended to the frame buffer — and before it is
// flushed to the socket, so a client never holds an answer to a request
// the counters have not seen yet.
//
// A request is two allocations — its ID string, and the trace with the
// traced context inside it — and the clock is read at stage boundaries
// only: once for beginRequest and the gate's Enter, once for its Done
// and endRequest, and a span that abuts another starts where it ended.

// requestCounter feeds the per-request IDs; clients and the /v2 error
// envelope name a failing request by them in bug reports.
var requestCounter atomic.Uint64

// requestID renders the n-th minted ID as "%s-%06d" would.
func requestID(wire bool, n uint64) string {
	var buf [32]byte
	b := append(buf[:0], "req-"...)
	if wire {
		b = append(buf[:0], "wire-"...)
	}
	for pad := uint64(100_000); pad > 1 && n < pad; pad /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendUint(b, n, 10))
}

// request is one in-flight request: its traced context (the trace
// carries the request ID), when it started and which transport counts
// it.
type request struct {
	ctx   context.Context
	tr    *obs.Trace
	start time.Time
	wire  bool
}

// beginRequest opens a request on parent at now: it adopts the caller's
// request ID when one was sent (and is sane) or mints one, and attaches
// the stage trace spans record into.
func (s *Service) beginRequest(parent context.Context, wire bool, adoptID string, now time.Time) request {
	rid := api.AdoptRequestID(adoptID)
	if rid == "" {
		rid = requestID(wire, requestCounter.Add(1))
	}
	tr := obs.NewTrace(rid)
	return request{ctx: obs.ContextWithTrace(parent, tr), tr: tr, start: now, wire: wire}
}

// endRequest is the end-of-request observation, called on every exit
// path — refusals and undecodable payloads included — once the
// response is encoded, with the instant that happened: the transport
// and canceled counters, the request and per-stage latency histograms,
// and the optional access log.
func (s *Service) endRequest(rq request, method, path string, status int, now time.Time) {
	dur := now.Sub(rq.start)
	if rq.wire {
		s.wireRequests.Add(1)
	} else {
		s.httpRequests.Add(1)
	}
	if status == api.StatusClientClosedRequest {
		s.canceled.Add(1)
	}
	s.reqSeconds.Observe(dur.Seconds())
	rq.tr.Fold(func(name string, d time.Duration) { s.stageHistogram(name).Observe(d.Seconds()) })
	if s.cfg.AccessLog {
		log.Printf("serve: rid=%s method=%s path=%s status=%d dur=%s%s",
			rq.tr.ID, method, path, status, dur.Round(time.Microsecond), renderStages(rq.tr.Stages()))
	}
}

// renderStages renders a trace's stage totals for one access-log line,
// sorted for deterministic output; no stages renders as nothing.
func renderStages(stages map[string]time.Duration) string {
	if len(stages) == 0 {
		return ""
	}
	names := make([]string, 0, len(stages))
	for n := range stages {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(" stages=")
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%s", n, stages[n].Round(time.Microsecond))
	}
	return b.String()
}

// errorStatus maps a service error to the status and code every
// transport answers with. Client-caused errors (unknown NF, malformed
// profile, unknown backend/policy) are 400. A cancellation whose origin
// is the request's own context means the client went away: 499, not a
// 5xx that would feed the tenant gate's windowed error rate and let a
// burst of disconnects shed healthy traffic. Other transient server
// conditions are 503 so retry policies keyed on 4xx-vs-5xx retry them;
// everything else is a scenario the client asked for that the service
// cannot answer (422).
func errorStatus(ctx context.Context, err error) (status int, code string) {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest, api.CodeInvalidArgument
	case callerCanceled(ctx, err):
		return api.StatusClientClosedRequest, api.CodeCanceled
	case errors.Is(err, ErrClosed), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, api.CodeUnavailable
	}
	return http.StatusUnprocessableEntity, api.CodeFailedPrecondition
}
