package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/ml"
	"repro/internal/profiling"
	"repro/internal/serve"
	"repro/internal/slomo"
	"repro/pkg/yalaclient"
)

// TestFailoverKillMidLoadgen is the failover acceptance test: a replica
// dies while a load-generation run is in flight, and the client must
// observe zero request errors — in-flight requests to the dead replica
// retry on the survivor (passive marking) and the health loop keeps it
// out of rotation afterward. The kill lands on a request by
// construction: b holds one routed request and is stopped while it
// does, so that request fails over to a whatever the health probe has
// seen by then.
func TestFailoverKillMidLoadgen(t *testing.T) {
	a, b := newStubReplica(t, "a"), newStubReplica(t, "b")
	g, ts := testGateway(t, -1, a, b) // edge off: every request must route

	done := make(chan struct{})
	var rep loadgen.Report
	var runErr error
	go func() {
		defer close(done)
		rep, runErr = loadgen.Run(loadgen.Config{
			URL:      ts.URL,
			Workers:  4,
			Requests: 20000,
			Profiles: 2,
		})
	}()

	// Let traffic reach both replicas, then kill one mid-run.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sa, _ := a.counts()
		sb, _ := b.counts()
		if sa > 200 && sb > 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("loadgen never warmed both replicas")
		}
		time.Sleep(5 * time.Millisecond) // loadgen reaches the replicas over real sockets
	}
	select {
	case <-b.parkNext():
	case <-time.After(10 * time.Second):
		t.Fatal("no routed request reached b to be held")
	}
	b.stop()
	<-done

	if runErr != nil {
		t.Fatalf("loadgen through a replica kill: %v", runErr)
	}
	if rep.Errors != 0 {
		t.Fatalf("client observed %d errors across the kill, want 0", rep.Errors)
	}
	if rep.Requests != 20000 {
		t.Fatalf("loadgen completed %d requests, want 20000", rep.Requests)
	}
	// The health check tripped: the dead replica is out of rotation.
	st, err := yalaclient.New(ts.URL).GatewayStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range st.Replicas {
		if r.URL == b.url() && r.Healthy {
			t.Fatal("killed replica still marked healthy after the run")
		}
	}
	if g.retries.Load() == 0 {
		t.Fatal("no failover retries recorded — the kill was never exercised")
	}
}

// TestPendingReloadReplay: a reload fanned out while a replica is down
// is queued and replayed when the replica recovers, so it never rejoins
// serving a stale model.
func TestPendingReloadReplay(t *testing.T) {
	a, b := newStubReplica(t, "a"), newStubReplica(t, "b")
	_, ts := testGateway(t, 0, a, b)

	b.stop()
	// Reload while b is down: the fan-out succeeds via a, queues b.
	status, body := post(t, ts.URL+"/v2/models/FlowStats/yala:reload", ``)
	if status != 200 {
		t.Fatalf("reload with one replica down: %d %s", status, body)
	}
	if _, ra := a.counts(); ra != 1 {
		t.Fatalf("live replica reloads = %d, want 1", ra)
	}
	st, err := yalaclient.New(ts.URL).GatewayStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	queued := false
	for _, r := range st.Replicas {
		if r.URL == b.url() && r.PendingReloads == 1 {
			queued = true
		}
	}
	if !queued {
		t.Fatalf("missed fan-out not queued: %+v", st.Replicas)
	}

	// Recovery: the health loop (20ms probes) replays the reload.
	b.start()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, rb := b.counts(); rb >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered replica never received the queued reload")
		}
		time.Sleep(10 * time.Millisecond) // the health loop replays over a real socket on its own ticker
	}
	// And the queue drains.
	deadline = time.Now().Add(5 * time.Second)
	for {
		st, err := yalaclient.New(ts.URL).GatewayStats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		drained := true
		for _, r := range st.Replicas {
			if r.PendingReloads != 0 {
				drained = false
			}
		}
		if drained {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending queue never drained: %+v", st.Replicas)
		}
		time.Sleep(10 * time.Millisecond) // the health loop replays over a real socket on its own ticker
	}
}

// TestConcurrentRouteHealthHammer drives routing, health transitions
// and stats concurrently — the -race companion to the failover test. A
// replica flaps repeatedly while clients hammer the gateway; with one
// replica always alive, every request must still succeed.
func TestConcurrentRouteHealthHammer(t *testing.T) {
	a, b := newStubReplica(t, "a"), newStubReplica(t, "b")
	g, ts := testGateway(t, 64, a, b)
	_ = g

	stop := make(chan struct{})
	var flapper sync.WaitGroup
	flapper.Add(1)
	go func() {
		defer flapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(40 * time.Millisecond):
			}
			if i%2 == 0 {
				b.stop()
			} else {
				b.start()
			}
		}
	}()

	models := []string{"A", "B", "C", "D", "E", "F"}
	var failures atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := yalaclient.New(ts.URL)
			for i := 0; i < 150; i++ {
				m := models[(w+i)%len(models)]
				if _, err := client.Predict(context.Background(), yalaclient.ModelID{NF: m}, "", yalaclient.PredictParams{}); err != nil {
					failures.Add(1)
					t.Logf("predict %s: %v", m, err)
				}
				if i%20 == 0 {
					if _, err := client.GatewayStats(context.Background()); err != nil {
						failures.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	flapper.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed while a replica flapped (one replica was always up)", n)
	}
}

// quickServiceConfig is a minimal-cost real serving setup (tiny
// training plan, small regressor) for integration tests — accuracy is
// irrelevant, determinism and plumbing are the assertions.
func quickServiceConfig(dir string) serve.ServiceConfig {
	gbr := ml.GBRConfig{Trees: 25, LearningRate: 0.15, MaxDepth: 3, MinLeaf: 2, Subsample: 1, Seed: 1}
	train := core.DefaultTrainConfig()
	train.Seed = 1
	train.Plan = profiling.Random(12, 1)
	train.PatternProbes = 1
	train.GBR = gbr
	sl := slomo.DefaultConfig()
	sl.Seed = 1
	sl.Samples = 12
	sl.GBR = gbr
	return serve.ServiceConfig{
		Registry: serve.RegistryConfig{Dir: dir, Seed: 1, Train: train, SLOMO: sl},
		Workers:  2,
	}
}

// TestRealReplicasEndToEnd runs the whole stack with real serve
// replicas: in-process spawn over a shared model directory, routed
// predictions identical to a direct replica call, edge-cache hits
// byte-identical, and a reload fan-out that empties the affected
// entries on every replica.
func TestRealReplicasEndToEnd(t *testing.T) {
	reps, err := SpawnReplicas(2, quickServiceConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { CloseReplicas(reps) })
	urls := []string{reps[0].URL, reps[1].URL}
	g, err := New(Config{Backends: urls, HealthInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	ctx := context.Background()
	client := yalaclient.New(ts.URL)

	params := yalaclient.PredictParams{Competitors: []yalaclient.Competitor{{Name: "ACL"}}}
	viaGateway, err := client.Predict(ctx, yalaclient.ModelID{NF: "FlowStats"}, "", params)
	if err != nil {
		t.Fatal(err)
	}
	// Both replicas answer identically: shared persisted models plus
	// deterministic measurement, so the gateway's routing choice is
	// invisible to clients.
	for i, u := range urls {
		direct, err := yalaclient.New(u).Predict(ctx, yalaclient.ModelID{NF: "FlowStats"}, "", params)
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		gw, _ := json.Marshal(viaGateway)
		dr, _ := json.Marshal(direct)
		if !bytes.Equal(gw, dr) {
			t.Fatalf("replica %d diverges from gateway response:\n%s\n%s", i, dr, gw)
		}
	}

	// The repeat is an edge hit and still identical.
	again, err := client.Predict(ctx, yalaclient.ModelID{NF: "FlowStats"}, "", params)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(viaGateway)
	b2, _ := json.Marshal(again)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("edge-cached response differs:\n%s\n%s", b1, b2)
	}

	// Aggregate stats see the fleet: summed predicts, unioned models.
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests["predict"] == 0 || len(st.Models) == 0 {
		t.Fatalf("aggregate stats empty: %+v", st)
	}
	if st.Cache.Entries == 0 {
		t.Fatal("no replica cache entries after a served prediction")
	}

	// Reload fans out: every replica's FlowStats entries drop, so no
	// replica can serve a stale prediction afterward.
	if err := client.Reload(ctx, yalaclient.ModelID{NF: "FlowStats"}, "yala"); err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		stats := rep.Service().Stats()
		for _, m := range stats.Models {
			if m.NF == "FlowStats" && m.Backend == "yala" && m.Loaded {
				t.Fatalf("replica %d still holds the reloaded model in memory", i)
			}
		}
	}
	after, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cache.Entries >= st.Cache.Entries {
		t.Fatalf("reload evicted nothing fleet-wide: %d → %d entries", st.Cache.Entries, after.Cache.Entries)
	}
}
