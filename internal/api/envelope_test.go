package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// traced returns a request whose context carries request ID rid, as the
// tiers' trace middleware leaves it.
func traced(r *http.Request, rid string) *http.Request {
	return r.WithContext(obs.ContextWithTrace(r.Context(), obs.NewTrace(rid)))
}

// TestWriteError pins the envelope bytes: key order, the request ID
// read from the trace, and its omission on an untraced request.
func TestWriteError(t *testing.T) {
	w := httptest.NewRecorder()
	r := traced(httptest.NewRequest("GET", "/x", nil), "rid-7")
	WriteError(w, r, http.StatusNotFound, CodeNotFound, "nope")
	if w.Code != http.StatusNotFound || w.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q", w.Code, w.Header().Get("Content-Type"))
	}
	if got, want := w.Body.String(), `{"error":{"code":"not_found","message":"nope","request_id":"rid-7"}}`+"\n"; got != want {
		t.Fatalf("envelope %q, want %q", got, want)
	}

	w = httptest.NewRecorder()
	WriteError(w, httptest.NewRequest("GET", "/x", nil), http.StatusBadRequest, CodeInvalidArgument, "m")
	if got, want := w.Body.String(), `{"error":{"code":"invalid_argument","message":"m"}}`+"\n"; got != want {
		t.Fatalf("untraced envelope %q, want %q", got, want)
	}
}

func TestSetRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, ""}, {-time.Second, ""}, {10 * time.Millisecond, "1"}, {time.Second, "1"}, {1200 * time.Millisecond, "2"},
	} {
		w := httptest.NewRecorder()
		SetRetryAfter(w, tc.d)
		if got := w.Header().Get("Retry-After"); got != tc.want {
			t.Errorf("SetRetryAfter(%s) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

// TestAdoptRequestID pins the one adoption rule both tiers apply.
func TestAdoptRequestID(t *testing.T) {
	long := strings.Repeat("x", 64)
	for _, tc := range []struct{ sent, want string }{
		{"trace-me-9", "trace-me-9"},
		{"  padded\t", "padded"},
		{"", ""},
		{"   ", ""},
		{long, long},
		{long + "y", ""},
		{" " + long + " ", long}, // the cap applies to the trimmed ID
	} {
		if got := AdoptRequestID(tc.sent); got != tc.want {
			t.Errorf("AdoptRequestID(%q) = %q, want %q", tc.sent, got, tc.want)
		}
	}
	if got := RequestID(httptest.NewRequest("GET", "/", nil).Context()); got != "" {
		t.Errorf("RequestID on an untraced context = %q", got)
	}
}

// TestReadBody: a body within the cap comes back whole; one past it is
// answered here with the 400 envelope.
func TestReadBody(t *testing.T) {
	w := httptest.NewRecorder()
	body, ok := ReadBody(w, httptest.NewRequest("POST", "/", strings.NewReader(`{"a":1}`)))
	if !ok || string(body) != `{"a":1}` || w.Body.Len() != 0 {
		t.Fatalf("ReadBody = %q, %v (wrote %q)", body, ok, w.Body.String())
	}

	w = httptest.NewRecorder()
	r := traced(httptest.NewRequest("POST", "/", strings.NewReader(strings.Repeat("x", MaxBodyBytes+1))), "rid-big")
	if _, ok := ReadBody(w, r); ok {
		t.Fatal("ReadBody accepted a body over the cap")
	}
	var env ErrorBody
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if w.Code != http.StatusBadRequest || env.Error.Code != CodeInvalidArgument || env.Error.RequestID != "rid-big" ||
		!strings.HasPrefix(env.Error.Message, "reading request body: ") {
		t.Fatalf("over-cap answer %d %+v", w.Code, env.Error)
	}
}

// TestCopyForwarded: exactly the allow-list crosses a hop.
func TestCopyForwarded(t *testing.T) {
	src := http.Header{}
	for _, k := range ForwardedHeaders {
		src.Set(k, "v-"+k)
	}
	src.Set("X-Gateway-Replica", "http://inner")
	src.Set("Set-Cookie", "hop=1")
	dst := http.Header{"X-Request-Id": {"overwritten"}}
	CopyForwarded(dst, src)
	if len(dst) != len(ForwardedHeaders) {
		t.Fatalf("forwarded %v, want exactly %v", dst, ForwardedHeaders)
	}
	for _, k := range ForwardedHeaders {
		if dst.Get(k) != "v-"+k {
			t.Errorf("%s = %q", k, dst.Get(k))
		}
	}
}

func TestStatusRecorder(t *testing.T) {
	rec := RecordStatus(httptest.NewRecorder())
	if rec.Status != http.StatusOK {
		t.Fatalf("unwritten status %d, want 200", rec.Status)
	}
	rec.WriteHeader(StatusClientClosedRequest)
	if rec.Status != StatusClientClosedRequest {
		t.Fatalf("recorded %d", rec.Status)
	}
}
