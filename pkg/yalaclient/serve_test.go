package yalaclient_test

import (
	"context"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/profiling"
	"repro/internal/serve"
	"repro/internal/slomo"
	"repro/pkg/yalaclient"
)

// newServeClient starts an in-process prediction server with
// quick-training Yala and SLOMO configurations and returns an SDK client
// for it.
func newServeClient(t *testing.T) *yalaclient.Client {
	t.Helper()
	gbr := ml.GBRConfig{Trees: 25, LearningRate: 0.15, MaxDepth: 3, MinLeaf: 2, Subsample: 1, Seed: 1}
	train := core.DefaultTrainConfig()
	train.Seed, train.Plan, train.PatternProbes, train.GBR = 1, profiling.Random(12, 1), 1, gbr
	sl := slomo.DefaultConfig()
	sl.Seed, sl.Samples, sl.GBR = 1, 12, gbr
	svc := serve.NewService(serve.ServiceConfig{
		Registry: serve.RegistryConfig{Dir: t.TempDir(), Seed: 1, Train: train, SLOMO: sl},
		Workers:  2,
	})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	c := yalaclient.New(srv.URL)
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
