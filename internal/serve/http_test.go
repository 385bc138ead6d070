package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/wire"
)

// httpModelDir is shared by every HTTP-layer test server: the first
// server quick-trains and persists the tiny models, later servers load
// them from disk instead of retraining. TestMain removes it.
var (
	httpModelDirOnce sync.Once
	httpModelDir     string
)

func TestMain(m *testing.M) {
	code := m.Run()
	if httpModelDir != "" {
		os.RemoveAll(httpModelDir)
	}
	os.Exit(code)
}

// testServer runs a service behind httptest with the cheap test
// training config and the shared model directory.
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	_, ts := testServerSvc(t)
	return ts
}

// testServerSvc is testServer, also handing back the service.
func testServerSvc(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	httpModelDirOnce.Do(func() {
		dir, err := os.MkdirTemp("", "serve-http-models-")
		if err != nil {
			t.Fatalf("creating shared model dir: %v", err)
		}
		httpModelDir = dir
	})
	cfg := RegistryConfig{
		Dir:   httpModelDir,
		Seed:  1,
		Train: testTrainConfig(1),
		SLOMO: testSLOMOConfig(1),
	}
	svc := NewService(ServiceConfig{Registry: cfg, Workers: 2})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

// postRaw round-trips a raw JSON body and returns (status, body).
func postRaw(t *testing.T, ts *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s response: %v", path, err)
	}
	return resp.StatusCode, string(data)
}

// postAs posts a typed request and decodes the 200 response into Resp —
// the raw-HTTP stand-in for the removed internal client (these tests
// pin the /v2 routes byte-for-byte, below the public SDK).
func postAs[Resp any](t *testing.T, ts *httptest.Server, path string, req any) Resp {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	status, data := postRaw(t, ts, path, string(body))
	if status != http.StatusOK {
		t.Fatalf("POST %s: status %d, body %s", path, status, data)
	}
	var resp Resp
	if err := json.Unmarshal([]byte(data), &resp); err != nil {
		t.Fatalf("decoding %s response %q: %v", path, data, err)
	}
	return resp
}

// getAs fetches a path and decodes the 200 response.
func getAs[Resp any](t *testing.T, ts *httptest.Server, path string) Resp {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, body %s", path, resp.StatusCode, data)
	}
	var out Resp
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decoding %s response %q: %v", path, data, err)
	}
	return out
}

func TestHTTPPredict(t *testing.T) {
	ts := testServer(t)
	resp := postAs[PredictResponse](t, ts, "/v2/models/FlowStats/yala:predict", wire.PredictParams{
		Competitors: []CompetitorSpec{{Name: "ACL"}},
	})
	if resp.NF != "FlowStats" || resp.SoloPPS <= 0 || resp.PredictedPPS <= 0 {
		t.Fatalf("implausible prediction: %+v", resp)
	}
}

// TestHTTPPredictBadRequest is the regression test for unknown NFs and
// malformed profiles: both must surface as HTTP 400 with a message that
// names the problem, not as an opaque 5xx.
func TestHTTPPredictBadRequest(t *testing.T) {
	ts := testServer(t)
	const flowStats = "/v2/models/FlowStats/yala:predict"
	cases := []struct {
		name, path, body, wantMsg string
	}{
		{"unknown nf", "/v2/models/NoSuchNF/yala:predict", `{}`, "unknown NF"},
		{"missing nf", "/v2/models/%20/yala:predict", `{}`, "missing NF name"},
		{"unknown competitor", flowStats, `{"competitors":[{"name":"Bogus"}]}`, "unknown NF"},
		{"negative flows", flowStats, `{"profile":{"flows":-5}}`, "flows"},
		{"oversized pktsize", flowStats, `{"profile":{"pktsize":100000}}`, "pktsize"},
		{"negative mtbr", flowStats, `{"profile":{"mtbr":-1}}`, "mtbr"},
		{"unknown backend", "/v2/models/FlowStats/magic:predict", `{}`, "unknown backend"},
	}
	for _, tc := range cases {
		status, body := postRaw(t, ts, tc.path, tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, status, body)
		}
		if !strings.Contains(body, tc.wantMsg) {
			t.Errorf("%s: body %q does not mention %q", tc.name, body, tc.wantMsg)
		}
	}
}

func TestHTTPPredictBatch(t *testing.T) {
	ts := testServer(t)
	resp := postAs[BatchResponse](t, ts, "/v2/models:batchPredict", wire.BatchParams{Requests: []wire.BatchItem{
		{Model: wire.ModelID{NF: "FlowStats"}},
		{Model: wire.ModelID{NF: "ACL"}, Competitors: []CompetitorSpec{{Name: "FlowStats"}}},
	}})
	if len(resp.Responses) != 2 || len(resp.Errors) != 0 {
		t.Fatalf("batch response: %+v", resp)
	}
	// A malformed element fails the whole batch with 400 and an index.
	status, body := postRaw(t, ts, "/v2/models:batchPredict",
		`{"requests":[{"model":"FlowStats"},{"model":"NoSuchNF"}]}`)
	if status != http.StatusBadRequest {
		t.Fatalf("bad batch element: status %d, want 400 (body %s)", status, body)
	}
	if !strings.Contains(body, "requests[1]") {
		t.Fatalf("bad batch element: body %q does not name the element", body)
	}
}

// decodeFailures are request bodies that fail to decode, with the
// message the /v2 envelope must carry for each.
var decodeFailures = []struct{ path, body, want string }{
	{"/v2/models:batchPredict", `{"requests":[{"model":7}]}`, "requests[0].model: got number, want string"},
	{"/v2/models:batchPredict", `{"requests":7}`, "requests: got number, want array"},
	{"/v2/models:batchPredict", `{"requests":[{"model":"ACL","mdl":"x"}]}`, "requests[0].mdl: unknown field"},
	{"/v2/models:batchPredict", `{"requests":[{"model":"ACL"`, "requests[0]: invalid JSON: unexpected end of JSON input"},
	{"/v2/models/FlowStats/yala:predict", `{"competitors":[{"name":"ACL"},{"name":true}]}`, "competitors[1].name: got boolean, want string"},
}

// TestHTTPDecodeErrorsSpeakJSON holds every decode failure's message to
// the JSON path and JSON kinds, naming none of the server's Go types.
func TestHTTPDecodeErrorsSpeakJSON(t *testing.T) {
	ts := testServer(t)
	for _, tc := range decodeFailures {
		status, body := postRaw(t, ts, tc.path, tc.body)
		var env api.ErrorBody
		if err := json.Unmarshal([]byte(body), &env); err != nil || status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, body %s (%v)", tc.body, status, body, err)
		}
		if want := "decoding request body: " + tc.want; env.Error.Message != want || env.Error.Code != api.CodeInvalidArgument {
			t.Errorf("%s: %s %q, want %q", tc.body, env.Error.Code, env.Error.Message, want)
		}
		for _, leak := range []string{"Go ", "json:", "wire.", "of type", "ModelID", "BatchItem", "PredictRequest"} {
			if strings.Contains(env.Error.Message, leak) {
				t.Errorf("%s: message %q names %q", tc.body, env.Error.Message, leak)
			}
		}
	}
}

func TestHTTPCompareAdmitDiagnose(t *testing.T) {
	ts := testServer(t)
	cmp := postAs[CompareResponse](t, ts, "/v2/models/FlowStats:compare", wire.CompareParams{Competitors: []CompetitorSpec{{Name: "ACL"}}})
	if cmp.Yala.PredictedPPS <= 0 || cmp.SLOMO.PredictedPPS <= 0 {
		t.Fatalf("implausible compare: %+v", cmp)
	}
	adm := postAs[AdmitResponse](t, ts, "/v2/models/FlowStats/yala:admit", wire.AdmitParams{
		Residents: []ColoNF{{Name: "ACL", SLA: 0.9}},
		SLA:       0.9,
	})
	if adm.Residents != 1 {
		t.Fatalf("admit response: %+v", adm)
	}
	diag := postAs[DiagnoseResponse](t, ts, "/v2/models/FlowStats:diagnose", wire.PredictParams{Competitors: []CompetitorSpec{{Name: "ACL"}}})
	if diag.Bottleneck == "" {
		t.Fatalf("diagnose response: %+v", diag)
	}
	// Admission validation: an out-of-range SLA is a 400.
	status, body := postRaw(t, ts, "/v2/models/FlowStats/yala:admit", `{"sla":1.5}`)
	if status != http.StatusBadRequest || !strings.Contains(body, "SLA") {
		t.Fatalf("bad admit SLA: status %d body %s", status, body)
	}
}

func TestHTTPStatsModelsHealthz(t *testing.T) {
	ts := testServer(t)
	postAs[PredictResponse](t, ts, "/v2/models/FlowStats/yala:predict", wire.PredictParams{})
	stats := getAs[statsV2](t, ts, "/v2/stats")
	if stats.Requests["predict"] != 1 || len(stats.Models) == 0 {
		t.Fatalf("stats: %+v", stats)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	models := getAs[wire.ModelsPage](t, ts, "/v2/models")
	if len(models.Models) == 0 {
		t.Fatal("model listing empty after a predict")
	}
}

// TestHTTPReloadValidation pins the reload endpoint's error contract:
// unknown backends and unknown NFs are 400s, not silent no-ops.
func TestHTTPReloadValidation(t *testing.T) {
	ts := testServer(t)
	status, body := postRaw(t, ts, "/v2/models/FlowStats/wat:reload", "")
	if status != http.StatusBadRequest || !strings.Contains(body, "unknown backend") {
		t.Fatalf("unknown backend reload: status %d body %s", status, body)
	}
	status, body = postRaw(t, ts, "/v2/models/NoSuchNF/yala:reload", "")
	if status != http.StatusBadRequest || !strings.Contains(body, "unknown NF") {
		t.Fatalf("unknown NF reload: status %d body %s", status, body)
	}
	status, _ = postRaw(t, ts, "/v2/models/FlowStats/yala:reload", "")
	if status != http.StatusOK {
		t.Fatalf("valid reload: status %d", status)
	}
}

// TestHTTPErrorEnvelopeEverywhere asserts no error path falls through
// to net/http's plain-text responses: wrong methods, unknown routes and
// the removed /v1 surface all answer the structured /v2 envelope with
// the request ID set.
func TestHTTPErrorEnvelopeEverywhere(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		method, path string
		wantStatus   int
		wantCode     string
		wantAllow    string
	}{
		{"GET", "/v2/models/FlowStats/yala:predict", http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "POST"},
		{"POST", "/v2/stats", http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "GET"},
		{"GET", "/v2/nope", http.StatusNotFound, api.CodeNotFound, ""},
		// /v1 was removed in PR 13: its old routes are unknown routes.
		{"GET", "/v1/models", http.StatusNotFound, api.CodeNotFound, ""},
		{"POST", "/v1/predict", http.StatusNotFound, api.CodeNotFound, ""},
	}
	for _, tc := range cases {
		resp, data := roundTrip(t, ts, tc.method, tc.path, "")
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
		}
		var env api.ErrorBody
		if err := json.Unmarshal(data, &env); err != nil || env.Error.Code != tc.wantCode || env.Error.Message == "" {
			t.Errorf("%s %s: body %q is not the structured %s envelope", tc.method, tc.path, data, tc.wantCode)
		}
		if rid := resp.Header.Get("X-Request-Id"); rid == "" || env.Error.RequestID != rid {
			t.Errorf("%s %s: envelope request_id %q, header %q", tc.method, tc.path, env.Error.RequestID, rid)
		}
		if allow := resp.Header.Get("Allow"); allow != tc.wantAllow {
			t.Errorf("%s %s: Allow %q, want %q", tc.method, tc.path, allow, tc.wantAllow)
		}
	}
}

func TestHTTPClusterPolicies(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v2/cluster/policies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("policies status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range cluster.Policies() {
		if !strings.Contains(string(data), p) {
			t.Fatalf("policies body %q missing %q", data, p)
		}
	}
}

func TestHTTPClusterRun(t *testing.T) {
	ts := testServer(t)
	drift := 0.5
	cmp := postAs[cluster.Comparison](t, ts, "/v2/cluster/runs", ClusterRunRequest{
		NICs:      2,
		Arrivals:  6,
		Seed:      3,
		NFs:       []string{"FlowStats", "ACL"},
		Policies:  []string{"firstfit", "yala"},
		Profiles:  2,
		DriftProb: &drift,
	})
	if len(cmp.Results) != 2 {
		t.Fatalf("cluster run returned %d results, want 2", len(cmp.Results))
	}
	for _, r := range cmp.Results {
		if r.Arrivals != 6 {
			t.Fatalf("policy %s saw %d arrivals, want 6", r.Policy, r.Arrivals)
		}
		if r.Admitted+r.Rejected+r.Rollbacks != 6 {
			t.Fatalf("policy %s accounting off: %+v", r.Policy, r)
		}
	}
}

func TestHTTPClusterRunBadRequest(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		name, body, wantMsg string
	}{
		{"bad nf", `{"nfs":["NoSuchNF"]}`, "unknown NF"},
		{"bad policy", `{"policies":["zeus"]}`, "unknown policy"},
		{"oversized fleet", `{"nics":100000}`, "nics"},
		{"oversized arrivals", `{"arrivals":1000000}`, "arrivals"},
		{"bad drift", `{"drift_prob":1.5}`, "drift_prob"},
		// The SLA range is only inverted after defaults fill sla_hi —
		// still the client's doing, still a 400.
		{"inverted sla after defaults", `{"sla_lo":0.5}`, "SLA range"},
		{"negative iat", `{"mean_iat":-5}`, "mean_iat"},
	}
	for _, tc := range cases {
		status, body := postRaw(t, ts, "/v2/cluster/runs", tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, status, body)
		}
		if !strings.Contains(body, tc.wantMsg) {
			t.Errorf("%s: body %q does not mention %q", tc.name, body, tc.wantMsg)
		}
	}
}
