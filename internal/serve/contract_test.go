package serve

// Contract tests for the /v2 API: every /v2 route must return exactly
// what the service method behind it returns for the same scenario, and
// the /v2 error envelope and paginated model listing are pinned by
// golden JSON fixtures (regenerate with `go test ./internal/serve -run
// TestV2Golden -update`).

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/wire"
)

var update = flag.Bool("update", false, "rewrite golden /v2 fixtures")

// canonJSON re-marshals a JSON document with sorted keys and stable
// indentation so two logically equal bodies compare equal as strings.
func canonJSON(t *testing.T, data []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("canonJSON: %v (body %s)", err, data)
	}
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// roundTrip posts body to path and returns the response.
func roundTrip(t *testing.T, ts *httptest.Server, method, path, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestV1V2Contract is the table-driven equivalence suite. Its name
// predates PR 13, which removed the /v1 routes: what /v1 carried
// verbatim — the flat service requests, NF and backend in the body —
// is still the Service API, so each case names one such request and its
// /v2 resource call, and the route must answer with the status and the
// canonical JSON body the service method produces.
func TestV1V2Contract(t *testing.T) {
	svc, ts := testServerSvc(t)
	ctx := context.Background()
	acl := []CompetitorSpec{{Name: "ACL"}}
	full := []ColoNF{{Name: "ACL", SLA: 1}, {Name: "ACL", SLA: 1}, {Name: "ACL", SLA: 1}, {Name: "ACL", SLA: 1}}
	cases := []struct {
		name           string
		direct         func() (any, error)
		v2Path, v2Body string
	}{
		{
			name: "predict default backend",
			direct: func() (any, error) {
				return svc.PredictOn(ctx, "", PredictRequest{NF: "FlowStats", Competitors: acl})
			},
			v2Path: "/v2/models/FlowStats/yala:predict", v2Body: `{"competitors":[{"name":"ACL"}]}`,
		},
		{
			name: "predict slomo with profile",
			direct: func() (any, error) {
				return svc.PredictOn(ctx, "", PredictRequest{NF: "ACL", Backend: "slomo",
					Profile: ProfileSpec{Flows: 64000}, Competitors: []CompetitorSpec{{Name: "FlowStats"}}})
			},
			v2Path: "/v2/models/ACL/slomo:predict", v2Body: `{"profile":{"flows":64000},"competitors":[{"name":"FlowStats"}]}`,
		},
		{
			name: "batch",
			direct: func() (any, error) {
				return svc.predictBatch(ctx, []PredictRequest{
					{NF: "FlowStats"},
					{NF: "ACL", Competitors: []CompetitorSpec{{Name: "FlowStats"}}},
				})
			},
			v2Path: "/v2/models:batchPredict", v2Body: `{"requests":[{"model":"FlowStats"},{"model":"ACL","competitors":[{"name":"FlowStats"}]}]}`,
		},
		{
			name: "compare",
			direct: func() (any, error) {
				return svc.CompareOn(ctx, "", CompareRequest{NF: "FlowStats", Competitors: acl})
			},
			v2Path: "/v2/models/FlowStats:compare", v2Body: `{"competitors":[{"name":"ACL"}]}`,
		},
		{
			name: "diagnose",
			direct: func() (any, error) {
				return svc.DiagnoseOn(ctx, "", DiagnoseRequest{NF: "FlowStats", Competitors: acl})
			},
			v2Path: "/v2/models/FlowStats:diagnose", v2Body: `{"competitors":[{"name":"ACL"}]}`,
		},
		{
			name: "admit",
			direct: func() (any, error) {
				return svc.AdmitOn(ctx, "", AdmitRequest{
					Residents: []ColoNF{{Name: "ACL", SLA: 0.9}}, Candidate: ColoNF{Name: "FlowStats", SLA: 0.9}})
			},
			v2Path: "/v2/models/FlowStats/yala:admit", v2Body: `{"residents":[{"name":"ACL","sla":0.9}],"sla":0.9}`,
		},
		{
			name: "admit rejected on cores",
			direct: func() (any, error) {
				return svc.AdmitOn(ctx, "", AdmitRequest{Residents: full, Candidate: ColoNF{Name: "ACL", SLA: 1}})
			},
			v2Path: "/v2/models/ACL/yala:admit", v2Body: `{"residents":[{"name":"ACL","sla":1},{"name":"ACL","sla":1},{"name":"ACL","sla":1},{"name":"ACL","sla":1}],"sla":1}`,
		},
		{
			name: "bad request statuses agree",
			direct: func() (any, error) {
				return svc.PredictOn(ctx, "", PredictRequest{NF: "NoSuchNF"})
			},
			v2Path: "/v2/models/NoSuchNF/yala:predict", v2Body: `{}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.direct()
			resp, body := roundTrip(t, ts, "POST", tc.v2Path, tc.v2Body)
			if err != nil {
				// The contract on a failure is the status and that the
				// envelope names the cause.
				status, code := errorStatus(ctx, err)
				var env api.ErrorBody
				if json.Unmarshal(body, &env) != nil || resp.StatusCode != status ||
					env.Error.Code != code || env.Error.Message != err.Error() {
					t.Fatalf("service failed with %v (%d %s); /v2 answered %d %s", err, status, code, resp.StatusCode, body)
				}
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("service answered, /v2 did not: %d %s", resp.StatusCode, body)
			}
			direct, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := canonJSON(t, body), canonJSON(t, direct); got != want {
				t.Fatalf("body diverged:\nservice %s\n/v2 %s", want, got)
			}
		})
	}
}

// requestIDPat normalizes the per-request IDs inside golden fixtures;
// trainedAtPat normalizes the wall-clock training timestamps model
// listings carry (the fixture pins that the field is present, not when
// the test ran).
var (
	requestIDPat = regexp.MustCompile(`req-[0-9]{6}`)
	trainedAtPat = regexp.MustCompile(`"trained_at": [0-9]+`)
)

// checkGolden compares got against the named fixture, normalizing
// request IDs and training timestamps; -update rewrites the fixture.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	got = requestIDPat.ReplaceAllString(got, "req-NNNNNN")
	got = trainedAtPat.ReplaceAllString(got, `"trained_at": 1700000000`) + "\n"
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("fixture %s drifted:\n--- want\n%s\n--- got\n%s", name, want, got)
	}
}

// TestV2GoldenErrorEnvelope pins the exact error-envelope shape clients
// program against.
func TestV2GoldenErrorEnvelope(t *testing.T) {
	ts := testServer(t)
	resp, body := roundTrip(t, ts, "POST", "/v2/models/NoSuchNF/yala:predict", `{}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	checkGolden(t, "v2_error_envelope.json", canonJSON(t, body))
}

// TestV2GoldenModelsPage pins the paginated model listing: a dedicated
// service over its own model directory, three cheap stub models, page
// size two — first page plus continuation token, then the final page.
func TestV2GoldenModelsPage(t *testing.T) {
	svc := NewService(ServiceConfig{
		Registry: RegistryConfig{Dir: t.TempDir(), Seed: 1, Train: testTrainConfig(1), SLOMO: testSLOMOConfig(1)},
		Workers:  2,
	})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	// Materialize three models through the stub backend (no training
	// cost, fully deterministic listing state).
	for _, nf := range []string{"ACL", "FlowStats", "NAT"} {
		resp, body := roundTrip(t, ts, "POST", "/v2/models/"+nf+"/fake:predict", `{}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seeding %s: %d %s", nf, resp.StatusCode, body)
		}
	}

	resp, body := roundTrip(t, ts, "GET", "/v2/models?page_size=2", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("page 1: status %d", resp.StatusCode)
	}
	checkGolden(t, "v2_models_page.json", canonJSON(t, body))

	var page wire.ModelsPage
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if page.NextPageToken == "" || page.TotalSize != 3 || len(page.Models) != 2 {
		t.Fatalf("page 1 shape: %+v", page)
	}
	resp, body = roundTrip(t, ts, "GET", "/v2/models?page_size=2&page_token="+page.NextPageToken, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("page 2: status %d", resp.StatusCode)
	}
	var page2 wire.ModelsPage
	if err := json.Unmarshal(body, &page2); err != nil {
		t.Fatal(err)
	}
	if len(page2.Models) != 1 || page2.NextPageToken != "" {
		t.Fatalf("page 2 shape: %+v", page2)
	}
	if page2.Models[0].ID != "NAT/fake" {
		t.Fatalf("page 2 content: %+v", page2.Models)
	}

	// A mangled token is an invalid_argument, not a 500.
	resp, body = roundTrip(t, ts, "GET", "/v2/models?page_token=%21%21", "")
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "page_token") {
		t.Fatalf("bad token: status %d body %s", resp.StatusCode, body)
	}
}

// TestV2PaginationDrift is the shrinking-listing contract: a page token
// minted against a longer listing must, after models disappear between
// page fetches (reload drops the loaded entries, the files leave the
// model directory), land as an empty final page — 200, no models, no
// next_page_token — never an error or an out-of-range slice. Offset
// tokens are documented as snapshot-quality, but "the listing moved"
// must degrade to "the walk ends", not to a failed walk: behind a
// scale-out gateway every replica pages independently, so drift is the
// common case, not the corner.
func TestV2PaginationDrift(t *testing.T) {
	dir := t.TempDir()
	svc := NewService(ServiceConfig{
		Registry: RegistryConfig{Dir: dir, Seed: 1, Train: testTrainConfig(1), SLOMO: testSLOMOConfig(1)},
		Workers:  2,
	})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	// Four stub models: listing = [ACL, FlowStats, NAT, NIDS] × fake.
	seeded := []string{"ACL", "FlowStats", "NAT", "NIDS"}
	for _, name := range seeded {
		if resp, body := roundTrip(t, ts, "POST", "/v2/models/"+name+"/fake:predict", `{}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("seeding %s: %d %s", name, resp.StatusCode, body)
		}
	}
	resp, body := roundTrip(t, ts, "GET", "/v2/models?page_size=3", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("page 1: status %d body %s", resp.StatusCode, body)
	}
	var page1 wire.ModelsPage
	if err := json.Unmarshal(body, &page1); err != nil {
		t.Fatal(err)
	}
	if len(page1.Models) != 3 || page1.NextPageToken == "" || page1.TotalSize != 4 {
		t.Fatalf("page 1 shape: %+v", page1)
	}

	// Mutate the registry between fetches: drop every model but ACL from
	// memory and from disk. The held token now points past the end.
	for _, name := range seeded[1:] {
		svc.Reload("fake", name)
		if err := os.Remove(filepath.Join(dir, name+".fake.json")); err != nil {
			t.Fatal(err)
		}
	}

	resp, body = roundTrip(t, ts, "GET", "/v2/models?page_size=3&page_token="+page1.NextPageToken, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale token: status %d body %s (want empty final page)", resp.StatusCode, body)
	}
	var page2 wire.ModelsPage
	if err := json.Unmarshal(body, &page2); err != nil {
		t.Fatal(err)
	}
	if len(page2.Models) != 0 || page2.NextPageToken != "" || page2.TotalSize != 1 {
		t.Fatalf("stale token page: %+v, want empty final page over 1 model", page2)
	}

	// The exact-boundary token (offset == listing length) is the token a
	// client legitimately holds when the final page filled completely;
	// it must also close the walk cleanly.
	resp, body = roundTrip(t, ts, "GET", "/v2/models?page_token="+encodePageToken(1), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("boundary token: status %d body %s", resp.StatusCode, body)
	}
	var page3 wire.ModelsPage
	if err := json.Unmarshal(body, &page3); err != nil {
		t.Fatal(err)
	}
	if len(page3.Models) != 0 || page3.NextPageToken != "" {
		t.Fatalf("boundary token page: %+v, want empty final page", page3)
	}

	// A walk restarted from scratch sees the shrunken listing whole.
	resp, body = roundTrip(t, ts, "GET", "/v2/models", "")
	var page4 wire.ModelsPage
	if err := json.Unmarshal(body, &page4); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(page4.Models) != 1 || page4.Models[0].ID != "ACL/fake" {
		t.Fatalf("fresh walk after shrink: status %d page %+v", resp.StatusCode, page4)
	}
}

// TestV2HardwareQualifiedPredict exercises the hw-qualified model path:
// the same NF served on two hardware classes yields class-specific
// predictions, and an unknown class is rejected up front.
func TestV2HardwareQualifiedPredict(t *testing.T) {
	ts := testServer(t)
	base := postAs[PredictResponse](t, ts, "/v2/models/FlowStats/fake:predict", wire.PredictParams{})
	qualified := postAs[PredictResponse](t, ts, "/v2/models/FlowStats@pensando/fake:predict", wire.PredictParams{})
	if base.HW != "" || qualified.HW != "pensando" {
		t.Fatalf("hw labels: base %q, qualified %q", base.HW, qualified.HW)
	}
	status, body := postRaw(t, ts, "/v2/models/FlowStats@martian/yala:predict", `{}`)
	if status != http.StatusBadRequest || !strings.Contains(body, "hardware class") {
		t.Fatalf("unknown class: status %d body %s", status, body)
	}
	status, body = postRaw(t, ts, "/v2/models/a@b@c/yala:predict", `{}`)
	if status != http.StatusBadRequest || !strings.Contains(body, "more than one @") {
		t.Fatalf("double-@ id: status %d body %s", status, body)
	}
	status, body = postRaw(t, ts, "/v2/models/FlowStats@/yala:predict", `{}`)
	if status != http.StatusBadRequest || !strings.Contains(body, "empty hardware qualifier") {
		t.Fatalf("trailing-@ id: status %d body %s", status, body)
	}
}

// TestV2YalaHardwareQualified runs a real (yala) prediction on a
// non-default class end to end: the model trains against the class
// preset and persists under the hardware-keyed layout.
func TestV2YalaHardwareQualified(t *testing.T) {
	dir := t.TempDir()
	svc := NewService(ServiceConfig{
		Registry: RegistryConfig{Dir: dir, Seed: 1, Train: testTrainConfig(1), SLOMO: testSLOMOConfig(1)},
		Workers:  2,
	})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	resp := postAs[PredictResponse](t, ts, "/v2/models/FlowStats@pensando/yala:predict", wire.PredictParams{})
	if resp.HW != "pensando" || resp.PredictedPPS <= 0 {
		t.Fatalf("hw-qualified yala prediction: %+v", resp)
	}
	if _, err := os.Stat(filepath.Join(dir, "FlowStats@pensando.yala.json")); err != nil {
		t.Fatalf("hardware-keyed model file missing: %v", err)
	}
	// The listing reports the qualified resource.
	resp2, body := roundTrip(t, ts, "GET", "/v2/models", "")
	if resp2.StatusCode != http.StatusOK || !strings.Contains(string(body), `"FlowStats@pensando/yala"`) {
		t.Fatalf("listing lacks hw-qualified ID: %s", body)
	}
}
