package yalaclient_test

import (
	"context"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/israce"
	"repro/internal/ml"
	"repro/internal/profiling"
	"repro/internal/serve"
	"repro/pkg/yalaclient"
)

// TestWirePredictAllocs gates what one warm Predict allocates end to
// end — SDK and server together, over a loopback yalawire listener, a
// real Yala answer with its per-resource rows. The hit path was brought
// from 50.76 allocations per round trip to under 20 on purpose; this
// keeps a stray fmt call, map or closure from quietly taking it back.
func TestWirePredictAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	train := core.DefaultTrainConfig()
	train.Seed, train.Plan, train.PatternProbes = 1, profiling.Random(12, 1), 1
	train.GBR = ml.GBRConfig{Trees: 25, LearningRate: 0.15, MaxDepth: 3, MinLeaf: 2, Subsample: 1, Seed: 1}
	svc := serve.NewService(serve.ServiceConfig{Registry: serve.RegistryConfig{Dir: t.TempDir(), Seed: 1, Train: train}, Workers: 2})
	defer svc.Close()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := svc.ServeWire(lis, nil)
	defer ws.Close()
	c := yalaclient.New("http://127.0.0.1:0", yalaclient.WithWire(ws.Addr()))
	defer c.Close()

	ctx := context.Background()
	model := yalaclient.ModelID{NF: "NIDS"}
	params := yalaclient.PredictParams{
		Profile:     yalaclient.ProfileSpec{Flows: 64000, PktSize: 512, MTBR: yalaclient.F64(600)},
		Competitors: []yalaclient.Competitor{{Name: "ACL", Profile: yalaclient.ProfileSpec{Flows: 8000, MTBR: yalaclient.F64(0)}}},
	}
	predict := func() {
		res, err := c.Predict(ctx, model, "", params)
		if err != nil || res.NF != "NIDS" || len(res.PerResourcePPS) < 2 || !c.WireActive() {
			t.Fatalf("warm wire predict: %+v, err %v, wire active %v", res, err, c.WireActive())
		}
	}
	predict() // trains, fills the response cache, dials the connection
	if got := testing.AllocsPerRun(2000, predict); got > 20 {
		t.Errorf("a warm wire Predict allocates %.2f times per round trip (SDK + server), want ≤ 20", got)
	} else {
		t.Logf("%.2f allocations per round trip", got)
	}
}
