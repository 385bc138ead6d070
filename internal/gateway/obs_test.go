package gateway

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/pkg/yalaclient"
)

func (s *stubReplica) lastRequestID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastRID
}

// TestRequestIDForwardedUpstream: the gateway forwards the client's
// X-Request-Id to the replica, and generates one when the client sent
// none — either way the replica sees the same ID the client gets back.
func TestRequestIDForwardedUpstream(t *testing.T) {
	a := newStubReplica(t, "a")
	_, ts := testGateway(t, -1, a)

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v2/models/X:predict", strings.NewReader(`{}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "client-chose-this")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := a.lastRequestID(); got != "client-chose-this" {
		t.Fatalf("replica saw X-Request-Id %q, want the client's", got)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "client-chose-this" {
		t.Fatalf("response X-Request-Id %q, want the client's", got)
	}

	// No client ID: the gateway mints one and still propagates it.
	resp2, err := http.Post(ts.URL+"/v2/models/X:predict", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	rid := resp2.Header.Get("X-Request-Id")
	if !strings.HasPrefix(rid, "gw-") {
		t.Fatalf("generated request ID %q should carry the gw- prefix", rid)
	}
	if got := a.lastRequestID(); got != rid {
		t.Fatalf("replica saw %q, client saw %q — the hop broke the ID", got, rid)
	}
}

// TestRequestIDInReplicaEnvelope runs the real stack: a client-chosen
// X-Request-Id crosses the gateway hop and comes back inside the
// replica's own /v2 error envelope — the replica adopted the gateway's
// forwarded ID rather than minting its own.
func TestRequestIDInReplicaEnvelope(t *testing.T) {
	reps, err := SpawnReplicas(1, quickServiceConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { CloseReplicas(reps) })
	g, err := New(Config{Backends: []string{reps[0].URL}, HealthInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)

	// Malformed body → the replica answers 400 with the envelope; no
	// model ever loads, so the test costs one round trip.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v2/models/FlowStats/yala:predict", strings.NewReader(`{not json`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "trace-me-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var env struct {
		Error struct {
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.RequestID != "trace-me-7" {
		t.Fatalf("replica envelope request_id %q, want the client's trace-me-7", env.Error.RequestID)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "trace-me-7" {
		t.Fatalf("response header X-Request-Id %q, want trace-me-7", got)
	}
}

// TestAggregateStatsDoesNotSumUptime: two replicas up ~100s each must
// aggregate to a ~100s-old fleet, not a 200s-old one; start_time is
// the earliest replica's.
func TestAggregateStatsDoesNotSumUptime(t *testing.T) {
	a, b := newStubReplica(t, "a"), newStubReplica(t, "b")
	a.mu.Lock()
	a.uptimeSeconds, a.startTime = 100, 1700000000
	a.mu.Unlock()
	b.mu.Lock()
	b.uptimeSeconds, b.startTime = 90, 1700000010
	b.mu.Unlock()
	_, ts := testGateway(t, -1, a, b)

	resp, err := http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st yalaclient.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.UptimeSeconds != 100 {
		t.Fatalf("aggregated uptime_seconds = %g, want the max 100 (summing uptimes fabricates fleet age)", st.UptimeSeconds)
	}
	if st.StartTime != 1700000000 {
		t.Fatalf("aggregated start_time = %d, want the earliest 1700000000", st.StartTime)
	}
}

// TestGatewayMetricsAggregation: GET /metrics carries the gateway's own
// series plus the fleet's merged yala_* series — counters and histogram
// components summed, uptime max'd, start time min'd.
func TestGatewayMetricsAggregation(t *testing.T) {
	a, b := newStubReplica(t, "a"), newStubReplica(t, "b")
	a.mu.Lock()
	a.uptimeSeconds, a.startTime = 100, 1700000000
	a.mu.Unlock()
	b.mu.Lock()
	b.uptimeSeconds, b.startTime = 90, 1700000010
	b.mu.Unlock()
	_, ts := testGateway(t, -1, a, b)

	// Two proxied requests so gateway counters are non-zero.
	for i := 0; i < 2; i++ {
		status, _ := post(t, ts.URL+"/v2/models/X:predict", `{}`)
		if status != http.StatusOK {
			t.Fatalf("proxied predict status %d", status)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := expValue(exp, "gateway_requests_total", ""); !ok || v < 2 {
		t.Fatalf("gateway_requests_total = %g (ok=%v), want >= 2", v, ok)
	}
	if v, ok := expValue(exp, "gateway_replica_up", a.url()); !ok || v != 1 {
		t.Fatalf("gateway_replica_up{%s} = %g (ok=%v), want 1", a.url(), v, ok)
	}
	// Each stub reports its own served count; the merged exposition sums
	// them — both replicas saw at least one request each or one saw all,
	// either way the sum is the fleet total (>= 2 predicts + scrapes).
	if v, ok := expValue(exp, "yala_requests_total", `verb="predict"`); !ok || v < 2 {
		t.Fatalf("merged yala_requests_total = %g (ok=%v), want >= 2", v, ok)
	}
	if v, ok := expValue(exp, "yala_uptime_seconds", ""); !ok || v != 100 {
		t.Fatalf("merged yala_uptime_seconds = %g (ok=%v), want max 100", v, ok)
	}
	if v, ok := expValue(exp, "yala_start_time_seconds", ""); !ok || v != 1700000000 {
		t.Fatalf("merged yala_start_time_seconds = %g (ok=%v), want min 1700000000", v, ok)
	}
	if v, ok := expValue(exp, "yala_stage_seconds_count", `stage="predict"`); !ok || v != 2 {
		t.Fatalf("merged yala_stage_seconds_count = %g (ok=%v), want 2 (one per replica)", v, ok)
	}
	// The two proxied predicts each went through send(), so the
	// per-replica upstream histograms hold two observations between them.
	va, _ := expValue(exp, "gateway_upstream_seconds_count", a.url())
	vb, _ := expValue(exp, "gateway_upstream_seconds_count", b.url())
	if va+vb < 2 {
		t.Fatalf("upstream latency histograms recorded %g+%g observations, want >= 2", va, vb)
	}
}

// expValue returns the value of the first sample named name whose label
// block contains labelSubstr (empty matches any), and whether one was
// found.
func expValue(e *obs.Exposition, name, labelSubstr string) (float64, bool) {
	for _, s := range e.Samples {
		if s.Name == name && strings.Contains(s.Labels, labelSubstr) {
			return s.Value, true
		}
	}
	return 0, false
}
