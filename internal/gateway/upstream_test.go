package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/pkg/yalaclient"
)

// TestMetricsScrapeBounded: a replica whose /metrics streams past
// api.MaxBodyBytes is left out of the merged exposition — the scrape is
// the gateway's one bounded read, not an unbounded parse — while the
// gateway's own gateway_* series and the other replica's series still
// render.
func TestMetricsScrapeBounded(t *testing.T) {
	a := newStubReplica(t, "a")
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok\n") })
	mux.HandleFunc("/v2/stats", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, `{}`) })
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "# TYPE yala_flood_total counter\n")
		for n := 0; n <= api.MaxBodyBytes; {
			k, err := fmt.Fprintf(w, "yala_flood_total{i=\"%d\"} 1\n", n)
			if err != nil {
				return // the gateway hung up at its cap
			}
			n += k
		}
	})
	flood := httptest.NewServer(mux)
	t.Cleanup(flood.Close)
	g, err := New(Config{Backends: []string{a.url(), flood.URL}, HealthInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	exp, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := exp.Value("gateway_replica_up", flood.URL); !ok {
		t.Fatal("gateway's own series missing beside an oversized replica scrape")
	}
	if _, ok := exp.Value("yala_uptime_seconds", ""); !ok {
		t.Fatal("the well-behaved replica's series missing from the merged exposition")
	}
	if _, ok := exp.Types["yala_flood_total"]; ok {
		t.Fatal("an exposition past the body cap was merged")
	}
}

// reloadRefuser is a replica stub that sheds its first refusals
// :reload calls with a 429 and Retry-After, then applies them; every
// other path answers like a healthy replica.
type reloadRefuser struct {
	srv *httptest.Server

	mu       sync.Mutex
	refusals int
	reloads  int // reloads received, refused or applied
}

func newReloadRefuser(t *testing.T, refusals int) *reloadRefuser {
	s := &reloadRefuser{refusals: refusals}
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch {
		case r.URL.Path == "/healthz":
			io.WriteString(w, "ok\n")
		case r.URL.Path == "/v2/stats":
			io.WriteString(w, `{}`)
		case strings.HasSuffix(r.URL.Path, ":reload"):
			s.mu.Lock()
			s.reloads++
			refuse := s.refusals > 0
			if refuse {
				s.refusals--
			}
			s.mu.Unlock()
			if refuse {
				w.Header().Set("Retry-After", "3")
				w.WriteHeader(http.StatusTooManyRequests)
				io.WriteString(w, `{"error":{"code":"resource_exhausted","message":"stub: shed"}}`)
				return
			}
			io.WriteString(w, `{"ok":true}`)
		default:
			io.WriteString(w, `{"nf":"X","backend":"refuser","predicted_pps":1}`)
		}
	}))
	t.Cleanup(s.srv.Close)
	return s
}

func (s *reloadRefuser) reloadCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reloads
}

// TestReloadFanoutQueues429: a replica that sheds a reload with a 429
// while a sibling applies it has the reload queued and replayed by the
// next probe, the client sees the sibling's success, and the edge sheds
// the NF's responses. When no replica applied it, the client gets a
// replica's own 429 with its Retry-After.
func TestReloadFanoutQueues429(t *testing.T) {
	a, b := newStubReplica(t, "a"), newReloadRefuser(t, 1)
	g, err := New(Config{Backends: []string{a.url(), b.srv.URL}, HealthInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)

	predict := "/v2/models/FlowStats/yala:predict"
	if status, body := post(t, ts.URL+predict, `{}`); status != http.StatusOK {
		t.Fatalf("priming predict: %d %s", status, body)
	}
	if _, ok := g.edge.Get(edgeKey(predict, []byte(`{}`))); !ok {
		t.Fatal("priming predict never reached the edge cache")
	}

	resp, err := http.Post(ts.URL+"/v2/models/FlowStats/yala:reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload with one replica shedding: status %d, want the sibling's 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Gateway-Fanout"); got != "1/2" {
		t.Fatalf("fan-out header %q, want 1/2", got)
	}
	if _, ok := g.edge.Get(edgeKey(predict, []byte(`{}`))); ok {
		t.Fatal("the reloaded NF's edge entry survived a fan-out one replica applied")
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.reloadCount() < 2 || pendingCount(g.replicas[1]) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the shed reload was never replayed (%d received, %d pending)", b.reloadCount(), pendingCount(g.replicas[1]))
		}
		time.Sleep(10 * time.Millisecond) // the health loop replays over a real socket on its own ticker
	}

	// A fleet that only sheds: the client gets the replica's own 429,
	// and the replay stays queued while the replica keeps shedding.
	c := newReloadRefuser(t, 1000)
	g2, err := New(Config{Backends: []string{c.srv.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g2.Close)
	ts2 := httptest.NewServer(g2.Handler())
	t.Cleanup(ts2.Close)
	resp, err = http.Post(ts2.URL+"/v2/models/FlowStats/yala:reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "3" {
		t.Fatalf("shed-everywhere reload: status %d Retry-After %q, want the replica's 429 with 3",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if n := pendingCount(g2.replicas[0]); n != 1 {
		t.Fatalf("shed reload left %d pending, want 1 queued for replay", n)
	}
}

func pendingCount(rep *replica) int {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return len(rep.pending)
}

// TestDropWireFallsBackToHTTP: once a replica's wire listener closes,
// the next routed predict fails over the tunnel, the endpoint drops its
// wire pool, and the same call completes over HTTP — the client never
// sees the transport change.
func TestDropWireFallsBackToHTTP(t *testing.T) {
	reps, err := SpawnReplicas(1, quickServiceConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { CloseReplicas(reps) })
	g, err := New(Config{Backends: []string{reps[0].URL}, HealthInterval: time.Hour, EdgeCacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)

	ep := g.replicas[0].ep.Load()
	deadline := time.Now().Add(5 * time.Second)
	for ep.wire.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("the boot probe never discovered the replica's wire listener")
		}
		time.Sleep(10 * time.Millisecond) // the boot probe reads the replica over a real socket
	}
	client := yalaclient.New(ts.URL)
	params := yalaclient.PredictParams{}
	want, err := client.Predict(context.Background(), yalaclient.ModelID{NF: "FlowStats"}, "", params)
	if err != nil {
		t.Fatal(err)
	}

	reps[0].wsrv.Close()
	for i := 0; i < 3; i++ {
		got, err := client.Predict(context.Background(), yalaclient.ModelID{NF: "FlowStats"}, "", params)
		if err != nil {
			t.Fatalf("predict %d after the wire listener closed: %v", i, err)
		}
		if got.PredictedPPS != want.PredictedPPS {
			t.Fatalf("predict over HTTP %v, over wire %v", got.PredictedPPS, want.PredictedPPS)
		}
	}
	if ep.wire.Load() != nil {
		t.Fatal("a dead wire pool is still attached to the endpoint")
	}
	if g.retries.Load() != 0 || !g.replicas[0].healthy.Load() {
		t.Fatal("a wire failure was treated as a replica failure")
	}
}

// TestHealthzTracksReplicas: the gateway is live while any replica is
// healthy, and once every slot is detached it answers 503 in the
// structured envelope carrying the response's request ID.
func TestHealthzTracksReplicas(t *testing.T) {
	a, b := newStubReplica(t, "a"), newStubReplica(t, "b")
	g, ts := testGateway(t, -1, a, b)

	get := func() (*http.Response, string) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp, string(body)
	}
	if resp, body := get(); resp.StatusCode != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz with two replicas: %d %q", resp.StatusCode, body)
	}
	if _, err := g.Detach(0); err != nil {
		t.Fatal(err)
	}
	if resp, body := get(); resp.StatusCode != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz with one replica left: %d %q", resp.StatusCode, body)
	}
	if _, err := g.Detach(1); err != nil {
		t.Fatal(err)
	}
	resp, body := get()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with every slot detached: %d %q, want 503", resp.StatusCode, body)
	}
	var env struct {
		Error struct {
			Code      string `json:"code"`
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("503 body is not the envelope: %v: %s", err, body)
	}
	if env.Error.Code != api.CodeUnavailable {
		t.Fatalf("envelope code %q, want %q", env.Error.Code, api.CodeUnavailable)
	}
	if rid := resp.Header.Get("X-Request-Id"); rid == "" || env.Error.RequestID != rid {
		t.Fatalf("envelope request_id %q, response X-Request-Id %q", env.Error.RequestID, rid)
	}
}
