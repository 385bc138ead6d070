package gateway

import (
	"context"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tenant"
	"repro/pkg/yalaclient"
)

// TestDetachReattachReplaysReload is the non-stale-rejoin proof behind
// elastic scale-down: a reload fanned out while a slot is vacant queues
// on the slot, and whatever replica attaches there next replays it
// before taking traffic.
func TestDetachReattachReplaysReload(t *testing.T) {
	a, b := newStubReplica(t, "a"), newStubReplica(t, "b")
	g, ts := testGateway(t, -1, a, b)

	url, err := g.Detach(1)
	if err != nil {
		t.Fatal(err)
	}
	if url != b.url() {
		t.Fatalf("detached %q, want %q", url, b.url())
	}

	// Fan out while slot 1 is vacant: only the attached replica dials.
	status, body := post(t, ts.URL+"/v2/models/FlowStats/yala:reload", ``)
	if status != 200 {
		t.Fatalf("reload with a vacant slot: %d %s", status, body)
	}
	if _, ra := a.counts(); ra != 1 {
		t.Fatalf("attached replica reloads = %d, want 1", ra)
	}
	if _, rb := b.counts(); rb != 0 {
		t.Fatalf("detached replica dialed anyway (%d reloads)", rb)
	}

	// A fresh replica fills the slot and must replay the missed reload
	// during Attach, before any routed traffic can reach it stale.
	c := newStubReplica(t, "c")
	if err := g.Attach(1, c.url()); err != nil {
		t.Fatal(err)
	}
	if _, rc := c.counts(); rc != 1 {
		t.Fatalf("rejoining replica replayed %d reloads, want 1", rc)
	}

	st, err := yalaclient.New(ts.URL).GatewayStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Replicas) != 2 || st.Slots != 2 {
		t.Fatalf("stats after reattach: %+v", st)
	}
	for _, r := range st.Replicas {
		if r.PendingReloads != 0 {
			t.Fatalf("replica %s still holds pending reloads after replay", r.URL)
		}
		if r.URL == b.url() {
			t.Fatal("detached replica still listed in stats")
		}
	}
}

// TestAutoscalerSignals drives evaluate/tick directly with fabricated
// signals: in-flight pressure, windowed p99 pressure (and its reset
// once the window moves on), and the consecutive-tick hysteresis.
func TestAutoscalerSignals(t *testing.T) {
	a := newStubReplica(t, "a")
	g, _ := testGateway(t, -1, a)
	as := &Autoscaler{
		g:    g,
		cfg:  AutoscaleConfig{Min: 1, Max: 1},
		pool: map[int]*Replica{0: nil},
		stop: make(chan struct{}),
	}
	if err := as.cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}

	if score := as.evaluate(); score != 0 {
		t.Fatalf("idle score = %g, want 0", score)
	}

	// Queue signal: 16 in flight against 1 replica × target 8 → 2.0.
	g.inflight.Store(16)
	if score := as.evaluate(); score != 2 {
		t.Fatalf("inflight score = %g, want 2", score)
	}
	g.inflight.Store(0)

	// Latency signal: a burst of 1s requests against a 250ms SLO.
	for i := 0; i < 20; i++ {
		g.reqSeconds.Observe(1.0)
	}
	if score := as.evaluate(); score < 2 {
		t.Fatalf("p99 score = %g, want >= 2 (1s observed vs 250ms SLO)", score)
	}
	// The window moved on: the old spike must not pin the score high.
	if score := as.evaluate(); score != 0 {
		t.Fatalf("score after quiet window = %g, want 0 (stale p99 retained)", score)
	}

	// Hysteresis: with Max == active the up branch can't act, so the
	// counters are observable. One busy tick then one idle tick must
	// not accumulate toward a scale-up.
	g.inflight.Store(16)
	as.tick()
	if as.upTicks != 1 {
		t.Fatalf("upTicks = %d after one busy tick, want 1", as.upTicks)
	}
	g.inflight.Store(0)
	as.tick()
	if as.upTicks != 0 || as.downTicks != 1 {
		t.Fatalf("ticks = up %d / down %d after idle tick, want 0/1", as.upTicks, as.downTicks)
	}
	g.inflight.Store(4) // mid-band: neither busy nor idle
	as.tick()
	if as.upTicks != 0 || as.downTicks != 0 {
		t.Fatalf("mid-band tick kept counters: up %d / down %d", as.upTicks, as.downTicks)
	}
}

// TestAutoscalerCountsOverloadSheds: with the tenant gate mounted, the
// gate refuses bulk work at 0.75 of the in-flight score a busy tick
// needs at 1.0, so a gated pool would shed load instead of growing. A
// tick in which the gate shed for overload counts as busy; a tick whose
// only shed was a tenant over its own quota does not.
func TestAutoscalerCountsOverloadSheds(t *testing.T) {
	a := newStubReplica(t, "a")
	reg, err := tenant.Parse([]byte(`{"tenants": [{"name": "capped", "key": "k", "rps": 0.001, "burst": 1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	gate := tenant.NewGate(reg, tenant.GateConfig{})
	g, err := New(Config{Backends: []string{a.url()}, Gate: gate, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	as := &Autoscaler{
		g:    g,
		cfg:  AutoscaleConfig{Min: 1, Max: 1},
		pool: map[int]*Replica{0: nil},
		stop: make(chan struct{}),
	}
	if err := as.cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	gate.SetQueueFunc(as.pressureFromInflight) // as NewElastic wires it

	// 7 in flight against 1 replica × target 8: mid-band on its own.
	g.inflight.Store(7)
	now := time.Unix(100, 0)
	if d := gate.Admit("", tenant.ClassBulk, now); d.OK || d.RateLimited {
		t.Fatalf("bulk admit at score 0.875 = %+v, want an overload shed", d)
	}
	as.tick()
	if as.upTicks != 1 {
		t.Fatalf("upTicks = %d after a tick with an overload shed, want 1", as.upTicks)
	}

	for i := 0; i < 2; i++ {
		gate.Admit("k", tenant.ClassInteractive, now)
	}
	if capped, _ := reg.Lookup("k"); capped.Snapshot().RateLimited != 1 {
		t.Fatalf("capped tenant = %+v, want one rate-limited shed", capped.Snapshot())
	}
	as.tick()
	if as.upTicks != 0 {
		t.Fatalf("upTicks = %d after a tick whose only shed was rate-limited, want 0", as.upTicks)
	}
}

// TestElasticScaleUpAndDown is the acceptance run: a -min 1 -max 3
// fleet of real replicas scales up under sustained concurrent load and
// back down to min when idle, with zero client-visible errors across
// both transitions. The test stops the pool's own 1s loop and drives
// tick itself, so every scaling action is one of its ticks; pressure is
// in-flight work the test adds to the gateway's count on top of the
// real traffic.
func TestElasticScaleUpAndDown(t *testing.T) {
	g, as, err := NewElastic(
		Config{HealthInterval: 20 * time.Millisecond, EdgeCacheEntries: -1},
		quickServiceConfig(t.TempDir()),
		AutoscaleConfig{Min: 1, Max: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { as.Close(); g.Close() })
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)

	if got := as.Active(); got != 1 {
		t.Fatalf("boot pool = %d, want min 1", got)
	}
	as.stopOnce.Do(func() { close(as.stop) })
	as.wg.Wait()

	// Sustained concurrent load from 8 workers while the pool grows;
	// scaling starts once every worker has had an answer.
	stop := make(chan struct{})
	var failures atomic.Int64
	var wg, answered sync.WaitGroup
	models := []string{"FlowStats", "ACL"}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		answered.Add(1)
		go func(w int) {
			defer wg.Done()
			var first sync.Once
			defer first.Do(answered.Done)
			client := yalaclient.New(ts.URL)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m := models[(w+i)%len(models)]
				if _, err := client.Predict(context.Background(), yalaclient.ModelID{NF: m}, "", yalaclient.PredictParams{}); err != nil {
					failures.Add(1)
					t.Logf("predict %s: %v", m, err)
				}
				first.Do(answered.Done)
			}
		}(w)
	}
	answered.Wait()

	// Three pools' worth of extra in-flight work keeps every tick busy
	// until the pool is at max.
	const extra = 3 * targetInflight
	g.inflight.Add(extra)
	for i := 0; as.Active() < 3; i++ {
		if i == 10*upAfter {
			close(stop)
			wg.Wait()
			t.Fatalf("pool never scaled up under load (active=%d)", as.Active())
		}
		as.tick()
	}
	g.inflight.Add(-extra)
	close(stop)
	wg.Wait()

	// Idle: the pool must drain back to min. The first ticks may still
	// see the load's latency in their window.
	for i := 0; as.Active() > 1; i++ {
		if i == 10*downAfter {
			t.Fatalf("pool never scaled down when idle (active=%d)", as.Active())
		}
		as.tick()
	}

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d client errors across scale transitions, want 0", n)
	}
	if up, down := as.scaleUps.Load(), as.scaleDowns.Load(); up != 2 || down != 2 {
		t.Fatalf("lifecycle counters up=%d down=%d, want 2/2", up, down)
	}

	// The fleet still answers after the churn, from the min-size pool.
	if _, err := yalaclient.New(ts.URL).Predict(context.Background(), yalaclient.ModelID{NF: "FlowStats"}, "", yalaclient.PredictParams{}); err != nil {
		t.Fatalf("predict after scale-down: %v", err)
	}
}
