package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/loadgen"
)

// The run-level loadgen tests keep their historical IDs in this package:
// they drive internal/loadgen only through its exported API, from the
// server's side of the import boundary (a test-only import).

// TestLoadgenReportsServerErrors is the regression test for the CI gate:
// a run that recorded server errors must return a non-nil error (so
// `yala loadgen` exits nonzero) while still carrying the counts.
func TestLoadgenReportsServerErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()

	rep, err := loadgen.Run(loadgen.Config{URL: ts.URL, Workers: 2, Requests: 10})
	if err == nil {
		t.Fatal("loadgen against an erroring server returned nil error")
	}
	if rep.Errors != 10 || rep.Requests != 10 {
		t.Fatalf("errors/requests = %d/%d, want 10/10", rep.Errors, rep.Requests)
	}
}

// TestLoadgenTenantMode: the hostile flooder's 429s land in the shed
// column of its own row — never in Errors, never in the quiet tenant's
// row — and the run as a whole still exits clean.
func TestLoadgenTenantMode(t *testing.T) {
	// A server that admits the hot tenant twice, then sheds it; every
	// other key is always served.
	var hotCalls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Authorization") == "Bearer k-hot" && hotCalls.Add(1) > 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":{"code":"resource_exhausted","message":"shed"}}`))
			return
		}
		fmt.Fprint(w, `{}`)
	}))
	defer ts.Close()

	rep, err := loadgen.Run(loadgen.Config{
		URL:        ts.URL,
		Workers:    4,
		Requests:   40,
		TenantKeys: []string{"k-quiet", "k-hot"},
		HotTenant:  1,
		QuietRPS:   200,
	})
	if err != nil {
		t.Fatalf("tenant-mode run with only 429s must not error: %v", err)
	}
	if rep.Requests != 40 || rep.Errors != 0 {
		t.Fatalf("requests/errors = %d/%d, want 40/0", rep.Requests, rep.Errors)
	}
	if rep.Shed != 18 {
		t.Fatalf("shed = %d, want 18 (20 hot requests minus 2 admitted)", rep.Shed)
	}
	if len(rep.Tenants) != 2 {
		t.Fatalf("tenant rows: %+v", rep.Tenants)
	}
	q, h := rep.Tenants[0], rep.Tenants[1]
	if q.Key != "k-quiet" || q.Hot || q.OK != 20 || q.Shed != 0 || q.Errors != 0 {
		t.Fatalf("quiet row %+v", q)
	}
	if q.RPS <= 0 || q.P99 <= 0 {
		t.Fatalf("quiet row missing achieved rps/p99: %+v", q)
	}
	if h.Key != "k-hot" || !h.Hot || h.OK != 2 || h.Shed != 18 {
		t.Fatalf("hot row %+v", h)
	}
}

// TestLoadgenTenantModeRealErrors: non-429 failures still fail the run.
func TestLoadgenTenantModeRealErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()
	rep, err := loadgen.Run(loadgen.Config{
		URL:        ts.URL,
		Workers:    2,
		Requests:   8,
		TenantKeys: []string{"a", "b"},
		HotTenant:  -1,
		QuietRPS:   1000,
	})
	if err == nil {
		t.Fatal("tenant-mode run against an erroring server returned nil error")
	}
	if rep.Errors != 8 || rep.Shed != 0 {
		t.Fatalf("errors/shed = %d/%d, want 8/0", rep.Errors, rep.Shed)
	}
}

// TestLoadgenTransportErrors covers the connection-refused flavor: the
// run must fail, not silently report zero throughput.
func TestLoadgenTransportErrors(t *testing.T) {
	// A closed server: every request fails at the transport.
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()

	rep, err := loadgen.Run(loadgen.Config{URL: url, Workers: 2, Requests: 4})
	if err == nil {
		t.Fatal("loadgen against a dead server returned nil error")
	}
	if rep.Errors != 4 {
		t.Fatalf("errors = %d, want 4", rep.Errors)
	}
}
