package gateway

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/pkg/yalaclient"
)

var wireCountRe = regexp.MustCompile(`yala_requests_total\{transport="wire"\} (\d+)`)

// TestGatewayWireUpstreamDiscovery proves the gateway's wire-first
// upstream path end to end against a real replica: the health loop
// discovers the wire_addr advertised in /v2/stats, proxied predicts
// then ride binary frames (the replica's own transport="wire" counter
// moves), and the answers are indistinguishable from HTTP proxying.
func TestGatewayWireUpstreamDiscovery(t *testing.T) {
	reps, err := SpawnReplicas(1, quickServiceConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { CloseReplicas(reps) })
	g, err := New(Config{Backends: []string{reps[0].URL}, HealthInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)

	// Discovery is asynchronous: a health probe has to read the
	// replica's stats and build the pool.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ep := g.replicas[0].ep.Load(); ep != nil && ep.wire.Load() != nil {
			break
		}
		time.Sleep(10 * time.Millisecond) // the boot probe reads the replica over a real socket
	}
	ep := g.replicas[0].ep.Load()
	if ep == nil || ep.wire.Load() == nil {
		t.Fatal("gateway never discovered the replica's wire listener")
	}

	client := yalaclient.New(ts.URL)
	res, err := client.Predict(context.Background(), yalaclient.ModelID{NF: "FlowStats"}, "", yalaclient.PredictParams{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NF != "FlowStats" || res.PredictedPPS <= 0 {
		t.Fatalf("proxied-over-wire predict looks wrong: %+v", res)
	}

	// The replica's own exposition is the ground truth for which
	// transport served it. Health probes ride HTTP, so only count the
	// wire series.
	resp, err := http.Get(reps[0].URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	m := wireCountRe.FindSubmatch(raw)
	if m == nil {
		t.Fatalf("replica exposition has no transport=\"wire\" series:\n%s", raw)
	}
	if n, _ := strconv.Atoi(string(m[1])); n == 0 {
		t.Fatal("gateway proxied over HTTP despite a discovered wire pool")
	}
}

// TestGatewayProbesAtBoot: a new gateway probes its replicas at once
// instead of after the first HealthInterval tick, so with an hour-long
// interval a routed predict still reaches the replica over the wire
// listener it advertises within a second of boot.
func TestGatewayProbesAtBoot(t *testing.T) {
	reps, err := SpawnReplicas(1, quickServiceConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { CloseReplicas(reps) })
	// Train the model first, over HTTP straight to the replica, so the
	// deadline below times routing, not training.
	params := yalaclient.PredictParams{}
	if _, err := yalaclient.New(reps[0].URL).Predict(context.Background(), yalaclient.ModelID{NF: "FlowStats"}, "", params); err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{Backends: []string{reps[0].URL}, HealthInterval: time.Hour, EdgeCacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)

	client := yalaclient.New(ts.URL)
	wireServed := func() int {
		resp, err := http.Get(reps[0].URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if m := wireCountRe.FindSubmatch(raw); m != nil {
			n, _ := strconv.Atoi(string(m[1]))
			return n
		}
		return 0
	}
	deadline := time.Now().Add(time.Second)
	for wireServed() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no routed predict reached the replica over wire within 1s of boot")
		}
		if _, err := client.Predict(context.Background(), yalaclient.ModelID{NF: "FlowStats"}, "", params); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRetryAfterCrossesGateway: a replica's 429 reaches the client with
// its Retry-After backoff hint intact, whether the gateway reached the
// replica over HTTP or tunneled the call over a wire upstream — one
// allow-list (api.ForwardedHeaders) decides what crosses the hop on
// both.
func TestRetryAfterCrossesGateway(t *testing.T) {
	shed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"error":{"code":"resource_exhausted","message":"stub: shed"}}`)
	})
	for _, upstream := range []string{"http", "wire"} {
		t.Run(upstream, func(t *testing.T) {
			// The stub's HTTP side answers probes; with a wire listener
			// mounted it advertises it and refuses to serve anything else,
			// so a 429 can only have come through the tunnel.
			wireAddr := ""
			mux := http.NewServeMux()
			mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok\n") })
			mux.HandleFunc("/v2/stats", func(w http.ResponseWriter, r *http.Request) {
				fmt.Fprintf(w, `{"wire_addr":%q}`, wireAddr)
			})
			if upstream == "wire" {
				svc := serve.NewService(quickServiceConfig(t.TempDir()))
				t.Cleanup(svc.Close)
				wlis, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				ws := svc.ServeWire(wlis, shed)
				t.Cleanup(ws.Close)
				wireAddr = ws.Addr()
				mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
					t.Errorf("%s %s reached the stub over HTTP despite its wire listener", r.Method, r.URL.Path)
				})
			} else {
				mux.Handle("/", shed)
			}
			stub := httptest.NewServer(mux)
			t.Cleanup(stub.Close)
			g, err := New(Config{Backends: []string{stub.URL}, HealthInterval: 20 * time.Millisecond, EdgeCacheEntries: -1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(g.Close)
			ts := httptest.NewServer(g.Handler())
			t.Cleanup(ts.Close)
			if upstream == "wire" {
				deadline := time.Now().Add(5 * time.Second)
				for g.replicas[0].ep.Load().wire.Load() == nil {
					if time.Now().After(deadline) {
						t.Fatal("gateway never discovered the stub's wire listener")
					}
					time.Sleep(10 * time.Millisecond) // the boot probe reads the stub over a real socket
				}
			}

			// The coalescing path (a predict) and the plain proxy path (a
			// listing) both forward the hint.
			for _, req := range []struct{ method, path string }{
				{http.MethodPost, "/v2/models/FlowStats/yala:predict"},
				{http.MethodGet, "/v2/models"},
			} {
				r, err := http.NewRequest(req.method, ts.URL+req.path, nil)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(r)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusTooManyRequests {
					t.Fatalf("%s %s: status %d (%s), want the replica's 429", req.method, req.path, resp.StatusCode, body)
				}
				if ra := resp.Header.Get("Retry-After"); ra != "2" {
					t.Fatalf("%s %s: Retry-After %q, want \"2\"", req.method, req.path, ra)
				}
			}
		})
	}
}
