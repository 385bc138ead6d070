package gateway

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// slowStub is a replica stub whose predict answers block on a release
// channel, so tests can hold an upstream call in flight while
// concurrent gateway requests pile onto it. Run the coalescing tests
// under -race: the leader/follower split is exactly the kind of
// sharing a data race would corrupt silently.
type slowStub struct {
	calls   atomic.Int64 // predict calls that reached the stub
	release chan struct{}
	srv     *httptest.Server
}

func newSlowStub(t *testing.T) *slowStub {
	t.Helper()
	s := &slowStub{release: make(chan struct{})}
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			w.Write([]byte("ok\n"))
			return
		case "/v2/stats":
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"uptime_sec":1,"workers":1,"requests":{},"errors":0,"cache":{"entries":0,"hits":0,"misses":0,"evictions":0},"models":[]}`)
			return
		}
		n := s.calls.Add(1)
		<-s.release
		w.Header().Set("Content-Type", "application/json")
		// The serial makes separate upstream calls distinguishable: if
		// coalescing ever split, bodies would differ.
		fmt.Fprintf(w, `{"nf":"FlowStats","backend":"stub","serial":%d}`, n)
	}))
	t.Cleanup(s.srv.Close)
	return s
}

func slowGateway(t *testing.T, stub *slowStub) (*Gateway, *httptest.Server) {
	t.Helper()
	g, err := New(Config{
		Backends:       []string{stub.srv.URL},
		HealthInterval: 20 * time.Millisecond,
		HealthTimeout:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts
}

// TestCoalesceIdenticalPredicts: N concurrent requests for the same
// (method, URI, body) on a cold key make exactly one upstream call and
// all receive the leader's bytes; followers are marked with
// X-Gateway-Coalesced and every response keeps its own request ID.
func TestCoalesceIdenticalPredicts(t *testing.T) {
	stub := newSlowStub(t)
	g, ts := slowGateway(t, stub)

	const n = 8
	body := `{"profile":{"flows":1000}}`
	type answer struct {
		status    int
		body      string
		coalesced bool
		cacheHit  bool
		rid       string
	}
	answers := make([]answer, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v2/models/FlowStats/yala:predict", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			answers[i] = answer{
				status:    resp.StatusCode,
				body:      string(data),
				coalesced: resp.Header.Get("X-Gateway-Coalesced") == "hit",
				cacheHit:  resp.Header.Get("X-Gateway-Cache") == "hit",
				rid:       resp.Header.Get("X-Request-Id"),
			}
		}(i)
	}
	// Give every request time to send and reach the flight group while
	// the leader's upstream call is pinned open, then let it answer.
	time.Sleep(300 * time.Millisecond)
	close(stub.release)
	wg.Wait()

	if got := stub.calls.Load(); got != 1 {
		t.Fatalf("upstream saw %d predict calls, want exactly 1", got)
	}
	rids := map[string]bool{}
	leaders := 0
	for i, a := range answers {
		if a.status != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, a.status, a.body)
		}
		if a.body != answers[0].body {
			t.Fatalf("request %d body diverged:\n%s\n%s", i, a.body, answers[0].body)
		}
		if a.rid == "" || rids[a.rid] {
			t.Fatalf("request %d: request ID %q missing or shared", i, a.rid)
		}
		rids[a.rid] = true
		if !a.coalesced && !a.cacheHit {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d requests proxied upstream (no share marker), want exactly 1 leader", leaders)
	}
	if got := g.coalesced.Load(); got == 0 {
		t.Fatal("gateway coalesced counter never moved")
	}
	if got := int(g.coalesced.Load()); got > n-1 {
		t.Fatalf("coalesced counter %d exceeds follower count %d", got, n-1)
	}
}

// TestCoalesceDistinctBodies: different bodies are different scenarios
// and must never share an answer — both reach the upstream.
func TestCoalesceDistinctBodies(t *testing.T) {
	stub := newSlowStub(t)
	_, ts := slowGateway(t, stub)

	bodies := []string{`{"profile":{"flows":1000}}`, `{"profile":{"flows":2000}}`}
	got := make([]string, len(bodies))
	var wg sync.WaitGroup
	for i, b := range bodies {
		wg.Add(1)
		go func(i int, b string) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v2/models/FlowStats/yala:predict", "application/json", strings.NewReader(b))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.Header.Get("X-Gateway-Coalesced") == "hit" {
				t.Errorf("request %d coalesced across distinct bodies", i)
			}
			got[i] = string(data)
		}(i, b)
	}
	// Both upstream calls must be in flight together before release —
	// that is the proof they did not coalesce.
	deadline := time.Now().Add(2 * time.Second)
	for stub.calls.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if stub.calls.Load() != 2 {
		t.Fatalf("upstream saw %d concurrent calls, want 2 (distinct bodies coalesced?)", stub.calls.Load())
	}
	close(stub.release)
	wg.Wait()
	if got[0] == got[1] {
		t.Fatalf("distinct scenarios shared one response: %s", got[0])
	}
}

// TestEdgeCacheHitHeaders: an edge hit must still answer like a real
// response — Content-Type set and a fresh X-Request-Id — not a bare
// byte replay.
func TestEdgeCacheHitHeaders(t *testing.T) {
	a := newStubReplica(t, "a")
	_, ts := testGateway(t, 0, a)

	body := `{"profile":{"flows":1000}}`
	first, err := http.Post(ts.URL+"/v2/models/FlowStats/yala:predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, first.Body)
	first.Body.Close()
	second, err := http.Post(ts.URL+"/v2/models/FlowStats/yala:predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer second.Body.Close()
	io.Copy(io.Discard, second.Body)
	if second.Header.Get("X-Gateway-Cache") != "hit" {
		t.Fatal("second identical request missed the edge cache")
	}
	if ct := second.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("edge hit lost Content-Type: %q", ct)
	}
	rid1, rid2 := first.Header.Get("X-Request-Id"), second.Header.Get("X-Request-Id")
	if rid2 == "" {
		t.Fatal("edge hit lost X-Request-Id")
	}
	if rid1 == rid2 {
		t.Fatalf("edge hit replayed the miss's request ID %q", rid1)
	}
}

// TestUpstreamResponseTooLarge: a replica answering more than the
// gateway's buffering cap is a misbehaving replica — the gateway must
// refuse to balloon and fail the request over, never stream the bytes.
func TestUpstreamResponseTooLarge(t *testing.T) {
	huge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte("ok\n"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		chunk := make([]byte, 1<<20)
		for i := 0; i < 11; i++ { // 11 MiB > the 10 MiB cap
			w.Write(chunk)
		}
	}))
	t.Cleanup(huge.Close)
	g, err := New(Config{Backends: []string{huge.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v2/models/FlowStats/yala:predict", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("oversized upstream proxied with status %d (%d bytes)", resp.StatusCode, len(data))
	}
	if !strings.Contains(string(data), "cap") {
		t.Fatalf("503 body does not name the size cap: %s", data)
	}
	// The misbehaving replica is marked down like any transport failure.
	if g.replicas[0].healthy.Load() {
		t.Fatal("oversized-response replica still marked healthy")
	}
}

// TestCanceledClientIs499: a client that hangs up mid-proxy produces a
// 499 and the gateway_client_canceled_total counter — never a 503, a
// shed observation, or a replica marked down for the caller's
// impatience.
func TestCanceledClientIs499(t *testing.T) {
	stub := newSlowStub(t)
	g, ts := slowGateway(t, stub)
	defer close(stub.release)

	ctx, cancel := context.WithCancel(context.Background())
	// A GET proxies on the caller's own context (no coalescing, no
	// detached leader) — the pure pass-through path.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v2/models", nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, rerr := http.DefaultClient.Do(req)
		errc <- rerr
	}()
	// Wait for the proxied call to pin upstream, then hang up.
	deadline := time.Now().Add(2 * time.Second)
	for stub.calls.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if stub.calls.Load() == 0 {
		t.Fatal("request never reached the stub")
	}
	cancel()
	if rerr := <-errc; rerr == nil {
		t.Fatal("canceled client saw a response")
	}

	deadline = time.Now().Add(2 * time.Second)
	for g.canceled.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := g.canceled.Load(); got != 1 {
		t.Fatalf("canceled counter = %d, want 1", got)
	}
	if !g.replicas[0].healthy.Load() {
		t.Fatal("replica marked down because a client hung up")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "gateway_client_canceled_total 1") {
		t.Fatalf("exposition missing gateway_client_canceled_total:\n%s", raw)
	}
}

// TestEdgeDropsMissHeldAcrossReload: an edge miss whose upstream answer
// is still in flight when a :reload for its NF fans out may carry the
// retired model's prediction, so the edge must not serve it afterwards.
func TestEdgeDropsMissHeldAcrossReload(t *testing.T) {
	stub := newSlowStub(t)
	// The replica applies reloads at once and holds everything else on
	// the stub's gate.
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, ":reload") {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{}`)
			return
		}
		stub.srv.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(replica.Close)
	g, err := New(Config{Backends: []string{replica.URL}, HealthInterval: 20 * time.Millisecond, HealthTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)

	post := func(verb, body string) *http.Response {
		resp, err := http.Post(ts.URL+"/v2/models/FlowStats/yala:"+verb, "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return nil
		}
		io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp
	}
	const scenario = `{"profile":{"flows":1000}}`
	held := make(chan struct{})
	go func() {
		defer close(held)
		post("predict", scenario)
	}()
	for deadline := time.Now().Add(5 * time.Second); stub.calls.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the predict never reached the replica")
		}
	}
	if resp := post("reload", ""); resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("reload fan-out: %v", resp)
	}
	close(stub.release)
	<-held
	resp := post("predict", scenario)
	if resp == nil {
		return
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Gateway-Cache") == "hit" {
		t.Fatalf("predict after the reload: status %d, X-Gateway-Cache %q; want a fresh upstream answer",
			resp.StatusCode, resp.Header.Get("X-Gateway-Cache"))
	}
}
