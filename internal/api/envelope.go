package api

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"
)

// Error codes of the envelope and of the wire error frame.
const (
	CodeInvalidArgument    = "invalid_argument"
	CodeNotFound           = "not_found"
	CodeMethodNotAllowed   = "method_not_allowed"
	CodeFailedPrecondition = "failed_precondition"
	CodeUnavailable        = "unavailable"
	CodeCanceled           = "canceled"
	CodeInternal           = "internal"
	// The tenant gate's refusals: 429 and 401.
	CodeResourceExhausted = "resource_exhausted"
	CodeUnauthenticated   = "unauthenticated"
)

// StatusClientClosedRequest is the non-standard 499 status (the nginx
// convention) a front door answers when the *client* abandoned the
// request — its context was canceled before a response could be sent.
// It is neither a success nor a server error; the tenant gate excludes
// it from SLO accounting entirely.
const StatusClientClosedRequest = 499

// MaxBodyBytes caps every request body read off a socket, and the
// replica responses the gateway buffers.
const MaxBodyBytes = 10 << 20

// ErrorBody is the error envelope; ErrorInfo its payload.
type (
	ErrorBody struct {
		Error ErrorInfo `json:"error"`
	}
	ErrorInfo struct {
		Code      string `json:"code"`
		Message   string `json:"message"`
		RequestID string `json:"request_id,omitempty"`
	}
)

// WriteJSON answers status with v encoded as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers with the error envelope, tagged with the request
// ID the tier's trace middleware put in r's context.
func WriteError(w http.ResponseWriter, r *http.Request, status int, code, message string) {
	WriteJSON(w, status, ErrorBody{Error: ErrorInfo{Code: code, Message: message, RequestID: RequestID(r.Context())}})
}

// SetRetryAfter advertises a refusal's backoff before WriteError sends
// it: whole seconds, rounded up, at least 1, so clients back off by the
// bucket's actual refill time. A non-positive d sets nothing.
func SetRetryAfter(w http.ResponseWriter, d time.Duration) {
	if d > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(max(1, int(math.Ceil(d.Seconds())))))
	}
}

// ReadBody reads a request body under the MaxBodyBytes cap. A body that
// cannot be read — over the cap, or torn mid-upload — is answered with
// the 400 envelope here; ok=false means the client has its answer.
func ReadBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, CodeInvalidArgument, "reading request body: "+err.Error())
		return nil, false
	}
	return body, true
}

// StatusRecorder captures the status a handler answered, for the
// middleware that observes the request once the handler returns.
type StatusRecorder struct {
	http.ResponseWriter
	Status int
}

// RecordStatus wraps w; a handler that never calls WriteHeader has
// answered 200.
func RecordStatus(w http.ResponseWriter) *StatusRecorder {
	return &StatusRecorder{ResponseWriter: w, Status: http.StatusOK}
}

func (r *StatusRecorder) WriteHeader(code int) {
	r.Status = code
	r.ResponseWriter.WriteHeader(code)
}
