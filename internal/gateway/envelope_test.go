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

	"repro/internal/api"
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

// TestDecodeErrorsSpeakJSON sends bodies that fail to decode through the
// gateway to real replicas. Whether the gateway's own batch split or the
// replica rejects a body, the envelope names the JSON path and JSON
// kinds, and none of either tier's Go types.
func TestDecodeErrorsSpeakJSON(t *testing.T) {
	reps, err := SpawnReplicas(1, quickServiceConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { CloseReplicas(reps) })
	g, err := New(Config{Backends: []string{reps[0].URL}, HealthInterval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)

	for _, tc := range []struct{ path, body, want string }{
		// Routed whole: the replica rejects it.
		{"/v2/models:batchPredict", `{"requests":[{"model":7}]}`, "requests[0].model: got number, want string"},
		{"/v2/models:batchPredict", `{"requests":[{"model":"ACL","mdl":"x"}]}`, "requests[0].mdl: unknown field"},
		{"/v2/models/FlowStats/yala:predict", `{"competitors":[{"name":"ACL"},{"name":true}]}`, "competitors[1].name: got boolean, want string"},
		// The gateway's own split rejects these.
		{"/v2/models:batchPredict", `{"requests":7}`, "requests: got number, want array"},
		{"/v2/models:batchPredict", `{"requests":[{"model":"ACL"`, "requests[0]: invalid JSON: unexpected end of JSON input"},
		{"/v2/ingest", `{"measurements":{}}`, "measurements: got object, want array"},
	} {
		status, body := post(t, ts.URL+tc.path, tc.body)
		var env api.ErrorBody
		if err := json.Unmarshal([]byte(body), &env); err != nil || status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, body %s (%v)", tc.body, status, body, err)
		}
		if want := "decoding request body: " + tc.want; env.Error.Message != want || env.Error.Code != api.CodeInvalidArgument {
			t.Errorf("%s: %s %q, want %q", tc.body, env.Error.Code, env.Error.Message, want)
		}
		for _, leak := range []string{"Go ", "json:", "wire.", "of type", "RawMessage", "ModelID", "BatchItem"} {
			if strings.Contains(env.Error.Message, leak) {
				t.Errorf("%s: message %q names %q", tc.body, env.Error.Message, leak)
			}
		}
	}
}

// TestDeepDecodeErrorIsPrompt: placing a decode error walks the body
// once, however deep it nests. The split decodes the batch's elements
// as raw JSON, so nested arrays pass until the misfit field after them.
func TestDeepDecodeErrorIsPrompt(t *testing.T) {
	_, ts := testGateway(t, 0, newStubReplica(t, "a"))
	el := strings.Repeat("[", 9000) + strings.Repeat("]", 9000)
	body := `{"requests":[` + strings.Repeat(el+",", 99) + el + `],"measurements":7}`
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Post(ts.URL+"/v2/models:batchPredict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %d-byte nested body: %v", len(body), err)
	}
	defer resp.Body.Close()
	var env api.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d (%v)", resp.StatusCode, err)
	}
	if want := "decoding request body: measurements: got number, want array"; env.Error.Message != want {
		t.Fatalf("message %q, want %q", env.Error.Message, want)
	}
}
