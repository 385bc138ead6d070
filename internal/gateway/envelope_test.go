package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/pkg/yalaclient"
)

// keySet flattens a JSON document's object keys ("error.code", ...).
func keySet(t *testing.T, data []byte) []string {
	t.Helper()
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("not JSON: %v (%s)", err, data)
	}
	var keys []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		if m, ok := v.(map[string]any); ok {
			for k, sub := range m {
				keys = append(keys, prefix+k)
				walk(prefix+k+".", sub)
			}
		}
	}
	walk("", doc)
	sort.Strings(keys)
	return keys
}

// TestGatewayErrorEnvelope: errors the gateway originates — no replica
// answered, an unreadable batch body, a replica's malformed sub-batch,
// a client that went away — are the same envelope a replica writes (the
// key set of serve's golden fixture), and carry the request ID the
// response header echoes: the client's own when it sent one, else the
// gateway's gw- mint. These are exactly the failures an operator needs
// to correlate across tiers.
func TestGatewayErrorEnvelope(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("..", "serve", "testdata", "v2_error_envelope.json"))
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := keySet(t, fixture)

	gatewayOver := func(backend string) http.Handler {
		g, err := New(Config{Backends: []string{backend}, HealthInterval: time.Hour, EdgeCacheEntries: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(g.Close)
		return g.Handler()
	}
	deadSrv := httptest.NewServer(http.NotFoundHandler())
	deadSrv.Close() // its port now refuses connections
	dead := gatewayOver(deadSrv.URL)
	// A replica that answers a two-element sub-batch with no responses.
	short := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"responses":[]}`))
	}))
	t.Cleanup(short.Close)
	malformed := gatewayOver(short.URL)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	mintPat := regexp.MustCompile(`^gw-[0-9]{6}$`)
	cases := []struct {
		name               string
		h                  http.Handler
		ctx                context.Context
		method, path, body string
		sentID             string
		status             int
		code               string
	}{
		{name: "dead fleet", h: dead, method: "POST", path: "/v2/models/FlowStats/yala:predict", body: `{}`,
			status: http.StatusServiceUnavailable, code: "unavailable"},
		{name: "dead fleet, client ID", h: dead, method: "POST", path: "/v2/models/FlowStats/yala:predict", body: `{}`,
			sentID: "trace-me-9", status: http.StatusServiceUnavailable, code: "unavailable"},
		{name: "garbled batch body", h: dead, method: "POST", path: "/v2/models:batchPredict", body: `{not json`,
			sentID: "trace-me-9", status: http.StatusBadRequest, code: "invalid_argument"},
		{name: "malformed sub-batch", h: malformed, method: "POST", path: "/v2/models:batchPredict",
			body: `{"requests":[{"model":"A"},{"model":"B"}]}`, status: http.StatusBadGateway, code: "internal"},
		{name: "canceled client", h: malformed, ctx: canceled, method: "GET", path: "/v2/models",
			sentID: "trace-me-9", status: 499, code: "canceled"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			if tc.ctx != nil {
				req = req.WithContext(tc.ctx)
			}
			if tc.sentID != "" {
				req.Header.Set("X-Request-Id", tc.sentID)
			}
			rec := httptest.NewRecorder()
			tc.h.ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body)
			}
			if got := keySet(t, rec.Body.Bytes()); !reflect.DeepEqual(got, wantKeys) {
				t.Fatalf("envelope keys %v, want the fixture's %v: %s", got, wantKeys, rec.Body)
			}
			var env struct {
				Error struct {
					Code      string `json:"code"`
					RequestID string `json:"request_id"`
				} `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatal(err)
			}
			if env.Error.Code != tc.code {
				t.Errorf("code %q, want %q", env.Error.Code, tc.code)
			}
			hdrID := rec.Header().Get("X-Request-Id")
			if env.Error.RequestID != hdrID {
				t.Errorf("envelope request_id %q, response X-Request-Id %q", env.Error.RequestID, hdrID)
			}
			if tc.sentID != "" && hdrID != tc.sentID {
				t.Errorf("request ID %q, want the client's %q adopted", hdrID, tc.sentID)
			}
			if tc.sentID == "" && !mintPat.MatchString(hdrID) {
				t.Errorf("request ID %q, want a gw-NNNNNN mint", hdrID)
			}
		})
	}

	// The SDK surfaces the ID: the dead-fleet 503 as an operator's code
	// sees it.
	ts := httptest.NewServer(dead)
	t.Cleanup(ts.Close)
	_, err = yalaclient.New(ts.URL).Predict(context.Background(), yalaclient.ModelID{NF: "FlowStats"}, "yala", yalaclient.PredictParams{})
	var apiErr *yalaclient.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("SDK error %v, want an *APIError", err)
	}
	if apiErr.StatusCode != http.StatusServiceUnavailable || apiErr.RequestID == "" {
		t.Fatalf("SDK saw status %d, request ID %q; want 503 with the gateway's ID", apiErr.StatusCode, apiErr.RequestID)
	}
}
