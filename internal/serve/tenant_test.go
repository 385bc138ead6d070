package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/tenant"
)

// tenantTestServer boots a service with the admission gate mounted: one
// tenant capped at a single request of burst, keyless traffic allowed
// but unlimited.
func tenantTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	reg, err := tenant.Parse([]byte(`{
		"tenants": [{"name": "capped", "key": "k-capped", "rps": 1, "burst": 1}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(ServiceConfig{
		Registry: testRegistryConfig(t),
		Workers:  2,
		Gate:     tenant.NewGate(reg, tenant.GateConfig{}),
	})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// postPredictAs posts a stub-backend predict as the given tenant key
// ("" = anonymous) and returns the response plus body.
func postPredictAs(t *testing.T, ts *httptest.Server, key string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/models/ACL/fake:predict", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestTenantGateOnService drives the gate through a real service: the
// capped tenant's second request sheds with the full 429 contract while
// anonymous traffic is untouched, and the shed surfaces in /metrics.
func TestTenantGateOnService(t *testing.T) {
	ts := tenantTestServer(t)

	// Burst of one: first capped request succeeds against the stub
	// backend, the second sheds.
	if resp, body := postPredictAs(t, ts, "k-capped"); resp.StatusCode != http.StatusOK {
		t.Fatalf("first capped request: %d %s", resp.StatusCode, body)
	}
	resp, body := postPredictAs(t, ts, "k-capped")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second capped request: %d, want 429 (%s)", resp.StatusCode, body)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer ≥ 1", resp.Header.Get("Retry-After"))
	}
	var envelope struct {
		Error struct {
			Code      string `json:"code"`
			Message   string `json:"message"`
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("decoding 429 body %s: %v", body, err)
	}
	if envelope.Error.Code != api.CodeResourceExhausted {
		t.Fatalf("code = %q, want resource_exhausted", envelope.Error.Code)
	}
	// The envelope's request_id must match the response header — the
	// same ID names the request in logs and in the error body.
	if rid := resp.Header.Get("X-Request-Id"); envelope.Error.RequestID != rid || rid == "" {
		t.Fatalf("request_id %q != header %q", envelope.Error.RequestID, rid)
	}

	// Anonymous traffic rides the unlimited default tenant.
	for i := 0; i < 5; i++ {
		if resp, body := postPredictAs(t, ts, ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("anonymous request %d: %d %s", i, resp.StatusCode, body)
		}
	}

	// The shed lands in the yala_tenant_* series on /metrics.
	mresp, metrics := roundTrip(t, ts, http.MethodGet, "/metrics", "")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", mresp.StatusCode)
	}
	for _, want := range []string{
		`yala_tenant_shed_total{reason="rate_limited",tenant="capped"} 1`,
		`yala_tenant_requests_total{tenant="capped"} 1`,
		`yala_tenant_requests_total{tenant="anonymous"}`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTenant429Golden pins the exact 429 envelope clients program
// against, next to the 400 envelope fixture.
func TestTenant429Golden(t *testing.T) {
	ts := tenantTestServer(t)
	if resp, body := postPredictAs(t, ts, "k-capped"); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up request: %d %s", resp.StatusCode, body)
	}
	resp, body := postPredictAs(t, ts, "k-capped")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	checkGolden(t, "v2_tenant_429_envelope.json", canonJSON(t, body))
}
