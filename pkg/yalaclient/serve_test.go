package yalaclient_test

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/ml"
	"repro/internal/profiling"
	"repro/internal/serve"
	"repro/internal/slomo"
	"repro/internal/tenant"
	"repro/pkg/yalaclient"
)

// testServiceConfig is a prediction service on quick-training Yala and
// SLOMO configurations over a fresh model directory.
func testServiceConfig(t *testing.T) serve.ServiceConfig {
	gbr := ml.GBRConfig{Trees: 25, LearningRate: 0.15, MaxDepth: 3, MinLeaf: 2, Subsample: 1, Seed: 1}
	train := core.DefaultTrainConfig()
	train.Seed, train.Plan, train.PatternProbes, train.GBR = 1, profiling.Random(12, 1), 1, gbr
	sl := slomo.DefaultConfig()
	sl.Seed, sl.Samples, sl.GBR = 1, 12, gbr
	return serve.ServiceConfig{
		Registry: serve.RegistryConfig{Dir: t.TempDir(), Seed: 1, Train: train, SLOMO: sl},
		Workers:  2,
	}
}

// startServer runs cfg in process on an HTTP listener and a yalawire
// listener, and returns the service and both addresses.
func startServer(t *testing.T, cfg serve.ServiceConfig) (svc *serve.Service, url, wireAddr string) {
	t.Helper()
	svc = serve.NewService(cfg)
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := svc.ServeWire(lis, nil)
	t.Cleanup(ws.Close)
	return svc, srv.URL, ws.Addr()
}

// newServeClient returns an SDK client for a fresh in-process server.
func newServeClient(t *testing.T) *yalaclient.Client {
	t.Helper()
	_, url, _ := startServer(t, testServiceConfig(t))
	c := yalaclient.New(url)
	t.Cleanup(c.Close)
	return c
}

// TestHealth: a live server answers the liveness probe; an address with
// nothing behind it is an error.
func TestHealth(t *testing.T) {
	ctx := context.Background()
	if err := newServeClient(t).Health(ctx); err != nil {
		t.Fatalf("Health on a live server: %v", err)
	}
	dead := httptest.NewServer(nil)
	dead.Close()
	if err := yalaclient.New(dead.URL).Health(ctx); err == nil {
		t.Fatal("Health on a closed server returned nil")
	}
}

// TestClusterPolicies: the SDK lists exactly the policies the server's
// scheduler runs, in its order.
func TestClusterPolicies(t *testing.T) {
	got, err := newServeClient(t).ClusterPolicies(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := cluster.Policies(); !slices.Equal(got, want) {
		t.Fatalf("ClusterPolicies = %v, want %v", got, want)
	}
}

// TestCompare: a compare with ground truth returns both predictors'
// answers for the path model, the simulator's measurement, and each
// predictor's error against it.
func TestCompare(t *testing.T) {
	res, err := newServeClient(t).Compare(context.Background(), yalaclient.ModelID{NF: "FlowStats"}, yalaclient.CompareParams{
		Profile:     yalaclient.ProfileSpec{Flows: 16000},
		Competitors: []yalaclient.Competitor{{Name: "ACL"}},
		GroundTruth: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NF != "FlowStats" || res.Profile.Flows != 16000 {
		t.Errorf("Compare answered for %s %+v, want FlowStats at 16000 flows", res.NF, res.Profile)
	}
	for _, p := range []yalaclient.PredictResult{res.Yala, res.SLOMO} {
		if p.NF != "FlowStats" || p.PredictedPPS <= 0 {
			t.Errorf("%s prediction %+v, want a positive FlowStats throughput", p.Backend, p)
		}
	}
	if res.Yala.Backend != "yala" || res.SLOMO.Backend != "slomo" {
		t.Errorf("backends %q and %q, want yala and slomo", res.Yala.Backend, res.SLOMO.Backend)
	}
	if res.MeasuredPPS <= 0 || res.YalaErrPct < 0 || res.SLOMOErrPct < 0 {
		t.Errorf("ground truth %v pps, errors %v%% and %v%%, want a positive measurement and non-negative errors",
			res.MeasuredPPS, res.YalaErrPct, res.SLOMOErrPct)
	}
}

// TestDiagnose: the diagnosis view is the Yala prediction for the same
// scenario, with the bottleneck among its per-resource rows and the drop
// measured from the solo rate.
func TestDiagnose(t *testing.T) {
	c := newServeClient(t)
	ctx := context.Background()
	model := yalaclient.ModelID{NF: "NIDS"}
	params := yalaclient.PredictParams{
		Profile:     yalaclient.ProfileSpec{Flows: 64000, MTBR: yalaclient.F64(600)},
		Competitors: []yalaclient.Competitor{{Name: "ACL"}},
	}
	diag, err := c.Diagnose(ctx, model, params)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := c.Predict(ctx, model, "yala", params)
	if err != nil {
		t.Fatal(err)
	}
	if diag.NF != "NIDS" || diag.Bottleneck != pred.Bottleneck || diag.PredictedPPS != pred.PredictedPPS || diag.SoloPPS != pred.SoloPPS {
		t.Fatalf("Diagnose %+v disagrees with the Yala prediction %+v", diag, pred)
	}
	if _, ok := diag.PerResourcePPS[diag.Bottleneck]; !ok {
		t.Errorf("bottleneck %q is not among the per-resource rows %v", diag.Bottleneck, diag.PerResourcePPS)
	}
	if want := 100 * (diag.SoloPPS - diag.PredictedPPS) / diag.SoloPPS; diag.DropPct != want {
		t.Errorf("DropPct = %v, want %v", diag.DropPct, want)
	}
}

// TestClusterRun: a fleet comparison runs on the server and reports one
// row per requested policy, each accounting for every arrival.
func TestClusterRun(t *testing.T) {
	res, err := newServeClient(t).ClusterRun(context.Background(), yalaclient.ClusterRunParams{
		NICs: 2, Arrivals: 8, Seed: 1, NFs: []string{"FlowStats"}, Policies: []string{"random", "firstfit"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 || res.Results[0].Policy != "random" || res.Results[1].Policy != "firstfit" || len(res.Scenario) == 0 {
		t.Fatalf("ClusterRun = %+v, want random and firstfit rows and the scenario", res)
	}
	// Every arrival is admitted, declined by the policy, or rolled back
	// when the simulator's ground truth breaches its SLA.
	for _, r := range res.Results {
		if r.Arrivals != 8 || r.Admitted+r.Rejected+r.Rollbacks != r.Arrivals {
			t.Errorf("%s: %d arrivals, %d admitted, %d rejected, %d rolled back", r.Policy, r.Arrivals, r.Admitted, r.Rejected, r.Rollbacks)
		}
	}
}

// TestGatewayStats: a gateway reports its replicas; a plain server
// answers the same call with the structured not_found error, the cheap
// "is this a gateway?" probe.
func TestGatewayStats(t *testing.T) {
	ctx := context.Background()
	_, url, _ := startServer(t, testServiceConfig(t))
	_, err := yalaclient.New(url).GatewayStats(ctx)
	var apiErr *yalaclient.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound || apiErr.Code != "not_found" || apiErr.RequestID == "" {
		t.Fatalf("GatewayStats on a plain server: %v, want a not_found APIError with a request ID", err)
	}
	if !strings.Contains(err.Error(), "not_found") {
		t.Errorf("error text %q does not name its code", err)
	}

	gw, err := gateway.New(gateway.Config{Backends: []string{url}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	gsrv := httptest.NewServer(gw.Handler())
	t.Cleanup(gsrv.Close)
	st, err := yalaclient.New(gsrv.URL).GatewayStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Replicas) != 1 || st.Replicas[0].URL != url {
		t.Fatalf("GatewayStats replicas %+v, want the one backend %s", st.Replicas, url)
	}
}

// TestPredictBatchWireMatchesHTTP: a batch over yalawire answers exactly
// what the same batch answers over HTTP, a failing element's error entry
// included — here a model that fails to train.
func TestPredictBatchWireMatchesHTTP(t *testing.T) {
	cfg := testServiceConfig(t)
	cfg.Registry.SLOMO.Samples = -1 // every SLOMO model fails to train
	svc, url, wireAddr := startServer(t, cfg)
	ctx := context.Background()
	items := []yalaclient.BatchItem{
		{Model: yalaclient.ModelID{NF: "ACL"}, Backend: "yala"},
		{Model: yalaclient.ModelID{NF: "ACL"}, Backend: "slomo"},
		{Model: yalaclient.ModelID{NF: "FlowStats"}, Backend: "yala", Profile: yalaclient.ProfileSpec{Flows: 8000},
			Competitors: []yalaclient.Competitor{{Name: "ACL"}}},
	}
	viaHTTP, err := yalaclient.New(url).PredictBatch(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	wc := yalaclient.New(url, yalaclient.WithWire(wireAddr))
	t.Cleanup(wc.Close)
	viaWire, err := wc.PredictBatch(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaHTTP.Errors) != len(items) || viaHTTP.Errors[1] == "" || viaHTTP.Errors[0] != "" || viaHTTP.Errors[2] != "" {
		t.Fatalf("HTTP batch errors %q, want exactly the broken model's", viaHTTP.Errors)
	}
	if !reflect.DeepEqual(viaWire, viaHTTP) {
		t.Fatalf("wire batch %+v\ndiffers from HTTP batch %+v", viaWire, viaHTTP)
	}
	var sb strings.Builder
	if err := svc.Obs().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `yala_requests_total{transport="wire"} 1`) || !wc.WireActive() {
		t.Fatal("the wire client's batch did not ride the wire transport")
	}
}

// TestWireErrorsTyped: error frames surface as the typed errors the HTTP
// path produces — a 400 as *APIError with its code and request ID, a
// 429 as *RateLimitError with its Retry-After — and neither parks the
// wire transport.
func TestWireErrorsTyped(t *testing.T) {
	reg, err := tenant.Parse([]byte(`{"tenants": [{"name": "capped", "key": "k-capped", "rps": 1, "burst": 1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testServiceConfig(t)
	cfg.Gate = tenant.NewGate(reg, tenant.GateConfig{})
	_, url, wireAddr := startServer(t, cfg)
	wc := yalaclient.New(url, yalaclient.WithWire(wireAddr), yalaclient.WithAPIKey("k-capped"))
	t.Cleanup(wc.Close)
	ctx := context.Background()
	model := yalaclient.ModelID{NF: "ACL"}

	_, err = wc.Predict(ctx, model, "", yalaclient.PredictParams{Profile: yalaclient.ProfileSpec{Flows: -1}})
	var apiErr *yalaclient.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest || apiErr.Code != "invalid_argument" || apiErr.RequestID == "" {
		t.Fatalf("invalid predict over wire: %v, want an invalid_argument APIError with a request ID", err)
	}
	_, err = wc.Predict(ctx, model, "", yalaclient.PredictParams{})
	var rle *yalaclient.RateLimitError
	if !errors.As(err, &rle) || rle.StatusCode != http.StatusTooManyRequests || rle.RetryAfter <= 0 {
		t.Fatalf("capped predict over wire: %v, want a RateLimitError with a Retry-After", err)
	}
	if !wc.WireActive() {
		t.Fatal("a typed error parked the wire transport")
	}
}
