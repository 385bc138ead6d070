package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/pkg/yalaclient"
)

// stubReplica is a minimal fake serve replica over a controllable
// listener: /healthz, deterministic canned predict bodies that name the
// serving stub, reload accounting, a /v2/stats shape good enough for
// aggregation, and stop/restart on a stable address so recovery paths
// are testable.
type stubReplica struct {
	t  *testing.T
	id string

	mu      sync.Mutex
	addr    string
	srv     *http.Server
	served  int            // non-health requests served
	paths   map[string]int // path → count
	reloads int
	entries int    // cache size reported via /v2/stats
	lastRID string // X-Request-Id seen on the last non-health request

	// /v2/stats uptime fields, settable per stub so aggregation rules
	// (max uptime, min start) are observable.
	uptimeSeconds float64
	startTime     int64

	// parked, when set by parkNext, is closed once a routed request is
	// held; the request stays held until its connection closes.
	parked chan struct{}
}

// parkNext makes the stub hold the next routed request — anything but
// the gateway's /healthz and /v2/stats probes — until the stub stops.
// The returned channel closes once that request is held.
func (s *stubReplica) parkNext() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.parked = make(chan struct{})
	return s.parked
}

func newStubReplica(t *testing.T, id string) *stubReplica {
	t.Helper()
	s := &stubReplica{t: t, id: id, paths: map[string]int{}, entries: 5}
	s.start()
	t.Cleanup(s.stop)
	return s
}

func (s *stubReplica) url() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return "http://" + s.addr
}

func (s *stubReplica) start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	addr := s.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		s.t.Fatalf("stub %s: %v", s.id, err)
	}
	s.addr = lis.Addr().String()
	s.srv = &http.Server{Handler: s.handler()}
	go s.srv.Serve(lis)
}

func (s *stubReplica) stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.srv != nil {
		s.srv.Close()
		s.srv = nil
	}
}

func (s *stubReplica) counts() (served, reloads int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served, s.reloads
}

func (s *stubReplica) pathCount(p string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.paths[p]
}

func (s *stubReplica) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte("ok\n"))
			return
		}
		s.mu.Lock()
		// The gateway's health loop reads /v2/stats for wire discovery,
		// from boot on: like /healthz, that probe is not a served request.
		if r.URL.Path != "/v2/stats" {
			s.served++
			s.paths[r.URL.Path]++
			s.lastRID = r.Header.Get("X-Request-Id")
		}
		isReload := strings.HasSuffix(r.URL.Path, ":reload")
		if isReload {
			s.reloads++
			s.entries = 0
		}
		entries := s.entries
		served := s.served
		uptime, start := s.uptimeSeconds, s.startTime
		park := s.parked
		if r.URL.Path != "/v2/stats" {
			s.parked = nil
		}
		s.mu.Unlock()

		if park != nil && r.URL.Path != "/v2/stats" {
			close(park)
			<-r.Context().Done() // stop closes the connection
			return
		}

		if r.URL.Path == "/metrics" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			fmt.Fprintf(w, "# TYPE yala_requests_total counter\nyala_requests_total{verb=\"predict\"} %d\n", served)
			fmt.Fprintf(w, "# TYPE yala_uptime_seconds gauge\nyala_uptime_seconds %g\n", uptime)
			fmt.Fprintf(w, "# TYPE yala_start_time_seconds gauge\nyala_start_time_seconds %d\n", start)
			fmt.Fprint(w, "# TYPE yala_stage_seconds histogram\nyala_stage_seconds_bucket{stage=\"predict\",le=\"+Inf\"} 1\nyala_stage_seconds_sum{stage=\"predict\"} 0.25\nyala_stage_seconds_count{stage=\"predict\"} 1\n")
			return
		}

		w.Header().Set("Content-Type", "application/json")
		switch {
		case isReload:
			fmt.Fprint(w, `{"ok":true}`)
		case r.URL.Path == "/v2/stats":
			fmt.Fprintf(w, `{"uptime_sec":1,"uptime_seconds":%g,"start_time":%d,"workers":2,"backends":["yala","slomo"],"requests":{"predict":%d},"errors":0,"cache":{"entries":%d,"hits":1,"misses":1,"evictions":0},"models":[{"id":"A/yala","nf":"A","backend":"yala","loaded":true,"on_disk":false}]}`, uptime, start, served, entries)
		case r.URL.Path == "/v2/models:batchPredict":
			body, _ := io.ReadAll(r.Body)
			var params struct {
				Requests []struct {
					Model string `json:"model"`
				} `json:"requests"`
			}
			if err := json.Unmarshal(body, &params); err != nil {
				http.Error(w, `{"error":{"code":"invalid_argument","message":"bad batch"}}`, http.StatusBadRequest)
				return
			}
			var resp struct {
				Responses []map[string]string `json:"responses"`
				Errors    []string            `json:"errors,omitempty"`
			}
			anyErr := false
			resp.Errors = make([]string, len(params.Requests))
			for i, req := range params.Requests {
				resp.Responses = append(resp.Responses, map[string]string{"nf": req.Model, "backend": s.id})
				if req.Model == "BAD" {
					resp.Errors[i] = "stub: bad model"
					anyErr = true
				}
			}
			if !anyErr {
				resp.Errors = nil
			}
			json.NewEncoder(w).Encode(resp)
		case r.URL.Path == "/v2/ingest":
			body, _ := io.ReadAll(r.Body)
			var params struct {
				Measurements []struct {
					Model       string  `json:"model"`
					MeasuredPPS float64 `json:"measured_pps"`
				} `json:"measurements"`
			}
			if err := json.Unmarshal(body, &params); err != nil {
				http.Error(w, `{"error":{"code":"invalid_argument","message":"bad ingest"}}`, http.StatusBadRequest)
				return
			}
			for i, m := range params.Measurements {
				if m.MeasuredPPS <= 0 {
					http.Error(w, fmt.Sprintf(`{"error":{"code":"invalid_argument","message":"measurements[%d]: measured_pps must be positive and finite"}}`, i), http.StatusBadRequest)
					return
				}
			}
			fmt.Fprintf(w, `{"accepted":%d,"quarantined":0}`, len(params.Measurements))
		default:
			// Any other verb: a deterministic body naming the stub, so
			// tests can see which replica answered.
			fmt.Fprintf(w, `{"nf":"X","backend":%q,"predicted_pps":1}`, s.id)
		}
	})
}

// testGateway builds a gateway over the stubs with fast health probes.
func testGateway(t *testing.T, edgeEntries int, stubs ...*stubReplica) (*Gateway, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(stubs))
	for i, s := range stubs {
		urls[i] = s.url()
	}
	g, err := New(Config{
		Backends:         urls,
		HealthInterval:   20 * time.Millisecond,
		EdgeCacheEntries: edgeEntries,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// TestRoutingStickyAndSpread: one model's requests all land on one
// replica (cache locality), while many models spread across both.
func TestRoutingStickyAndSpread(t *testing.T) {
	a, b := newStubReplica(t, "a"), newStubReplica(t, "b")
	_, ts := testGateway(t, -1, a, b) // edge cache off: observe every proxy

	for i := 0; i < 10; i++ {
		if status, body := post(t, ts.URL+"/v2/models/FlowStats/yala:predict", `{}`); status != 200 {
			t.Fatalf("predict %d: %d %s", i, status, body)
		}
	}
	servedA, _ := a.counts()
	servedB, _ := b.counts()
	if servedA != 10 && servedB != 10 {
		t.Fatalf("one model split across replicas: a=%d b=%d", servedA, servedB)
	}

	// Distinct models (and distinct backends of one model) spread.
	for _, m := range []string{"A", "B", "C", "D", "E", "F", "G", "H"} {
		for _, backend := range []string{"yala", "slomo"} {
			post(t, ts.URL+"/v2/models/"+m+"/"+backend+":predict", `{}`)
		}
	}
	servedA2, _ := a.counts()
	servedB2, _ := b.counts()
	if servedA2 == servedA || servedB2 == servedB {
		t.Fatalf("16 model/backend keys all routed one way: a=%d→%d b=%d→%d",
			servedA, servedA2, servedB, servedB2)
	}
}

// TestRoutingDefaultPoolSpreads pins the CI smoke's assumption: the
// loadgen default NF pool spreads across two replicas under the
// slot-indexed rendezvous hash (which is deterministic by design — the
// hash sees slot indices, never ephemeral ports).
func TestRoutingDefaultPoolSpreads(t *testing.T) {
	pool := []string{"FlowStats", "ACL", "NAT", "FlowMonitor", "NIDS"}
	slots := map[int]int{}
	for _, nf := range pool {
		key := modelKey(nf, "", "yala")
		best, bestSlot := uint64(0), 0
		for slot := 0; slot < 2; slot++ {
			if h := hashSlot(key, slot); h > best {
				best, bestSlot = h, slot
			}
		}
		slots[bestSlot]++
	}
	if len(slots) != 2 {
		t.Fatalf("default NF pool routes entirely to one of 2 slots: %v", slots)
	}
}

// TestReloadFanout: a /v2 reload reaches every replica exactly once and
// reports the fan-out width, whichever (backend, NF) it names.
func TestReloadFanout(t *testing.T) {
	a, b := newStubReplica(t, "a"), newStubReplica(t, "b")
	g, ts := testGateway(t, 0, a, b)

	resp, err := http.Post(ts.URL+"/v2/models/FlowStats/yala:reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Gateway-Fanout"); got != "2/2" {
		t.Fatalf("fan-out header %q, want 2/2", got)
	}
	if _, ra := a.counts(); ra != 1 {
		t.Fatalf("replica a reloads = %d, want 1", ra)
	}
	if _, rb := b.counts(); rb != 1 {
		t.Fatalf("replica b reloads = %d, want 1", rb)
	}

	if status, body := post(t, ts.URL+"/v2/models/ACL/slomo:reload", ""); status != 200 {
		t.Fatalf("second reload: %d %s", status, body)
	}
	if _, ra := a.counts(); ra != 2 {
		t.Fatalf("replica a reloads after the second = %d, want 2", ra)
	}
	if _, rb := b.counts(); rb != 2 {
		t.Fatalf("replica b reloads after the second = %d, want 2", rb)
	}
	if got := g.fanouts.Load(); got != 2 {
		t.Fatalf("gateway fanouts = %d, want 2", got)
	}
}

// TestReloadFanoutRequiresPost: a GET on the :reload path must proxy to
// one replica (which owns the 405) — never fan out across the fleet or
// count as a fan-out.
func TestReloadFanoutRequiresPost(t *testing.T) {
	a, b := newStubReplica(t, "a"), newStubReplica(t, "b")
	g, ts := testGateway(t, -1, a, b)

	resp, err := http.Get(ts.URL + "/v2/models/FlowStats/yala:reload")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := g.fanouts.Load(); got != 0 {
		t.Fatalf("GET :reload counted %d fan-outs, want 0", got)
	}
	_, ra := a.counts()
	_, rb := b.counts()
	if ra+rb != 1 {
		t.Fatalf("GET :reload reached %d replicas, want exactly 1 (proxied)", ra+rb)
	}
}

// TestNewRejectsEmptyBackend: a phantom empty-URL replica (trailing
// comma in -backends) is a construction error, not a dead fleet member.
func TestNewRejectsEmptyBackend(t *testing.T) {
	if _, err := New(Config{Backends: []string{"http://x", ""}}); err == nil {
		t.Fatal("empty backend URL accepted")
	}
	if _, err := New(Config{Backends: []string{"  "}}); err == nil {
		t.Fatal("blank backend URL accepted")
	}
}

// TestEdgeCache: a repeated deterministic verb serves from the gateway
// without touching a replica, and a reload fan-out naming the NF evicts
// it while unrelated entries survive.
func TestEdgeCache(t *testing.T) {
	a, b := newStubReplica(t, "a"), newStubReplica(t, "b")
	g, ts := testGateway(t, 0, a, b)

	body := `{"profile":{"flows":1000}}`
	_, first := post(t, ts.URL+"/v2/models/FlowStats/yala:predict", body)
	servedFirst, _ := a.counts()
	sb, _ := b.counts()
	servedFirst += sb

	resp, err := http.Post(ts.URL+"/v2/models/FlowStats/yala:predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	second, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Gateway-Cache") != "hit" {
		t.Fatal("second identical request missed the edge cache")
	}
	if string(second) != first {
		t.Fatalf("edge hit differs from origin response:\n%s\n%s", first, second)
	}
	servedSecond, _ := a.counts()
	sb2, _ := b.counts()
	servedSecond += sb2
	if servedSecond != servedFirst {
		t.Fatalf("edge hit still reached a replica (%d → %d proxied)", servedFirst, servedSecond)
	}
	if st := g.edge.Stats(); st.Hits != 1 {
		t.Fatalf("edge stats %+v, want 1 hit", st)
	}

	// A different body is a different scenario: miss.
	post(t, ts.URL+"/v2/models/FlowStats/yala:predict", `{"profile":{"flows":2000}}`)
	// An unrelated model's entry...
	post(t, ts.URL+"/v2/models/ACL/slomo:predict", `{}`)
	if n := g.edge.Len(); n != 3 {
		t.Fatalf("edge holds %d entries, want 3", n)
	}

	// Reloading FlowStats evicts its entries; ACL's survives.
	post(t, ts.URL+"/v2/models/FlowStats/yala:reload", ``)
	if n := g.edge.Len(); n != 1 {
		t.Fatalf("edge holds %d entries after reload, want only the unrelated one", n)
	}
	resp2, err := http.Post(ts.URL+"/v2/models/FlowStats/yala:predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get("X-Gateway-Cache") == "hit" {
		t.Fatal("evicted scenario still served from the edge")
	}
}

// TestBatchScatter: one batch spanning many models splits into
// per-replica sub-batches and reassembles in order, with per-element
// errors landing at the client's indices.
func TestBatchScatter(t *testing.T) {
	a, b := newStubReplica(t, "a"), newStubReplica(t, "b")
	_, ts := testGateway(t, -1, a, b)

	models := []string{"A", "B", "C", "D", "E", "F", "G", "BAD"}
	var req struct {
		Requests []map[string]string `json:"requests"`
	}
	for _, m := range models {
		req.Requests = append(req.Requests, map[string]string{"model": m})
	}
	raw, _ := json.Marshal(req)
	status, body := post(t, ts.URL+"/v2/models:batchPredict", string(raw))
	if status != 200 {
		t.Fatalf("batch status %d: %s", status, body)
	}
	var out struct {
		Responses []struct {
			NF      string `json:"nf"`
			Backend string `json:"backend"`
		} `json:"responses"`
		Errors []string `json:"errors"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Responses) != len(models) {
		t.Fatalf("got %d responses, want %d", len(out.Responses), len(models))
	}
	servers := map[string]bool{}
	for i, m := range models {
		if out.Responses[i].NF != m {
			t.Fatalf("response %d is %q, want %q (order lost in scatter/gather)", i, out.Responses[i].NF, m)
		}
		servers[out.Responses[i].Backend] = true
	}
	if len(servers) != 2 {
		t.Fatalf("8-model batch served entirely by %v, want both replicas", servers)
	}
	if len(out.Errors) != len(models) || out.Errors[7] == "" {
		t.Fatalf("per-element error lost its index: %v", out.Errors)
	}
	for i := 0; i < 7; i++ {
		if out.Errors[i] != "" {
			t.Fatalf("spurious error at %d: %v", i, out.Errors)
		}
	}
}

// TestRemapBatchIndices covers the sub-batch→client index rewrite.
func TestRemapBatchIndices(t *testing.T) {
	body := []byte(`{"error":{"code":"invalid_argument","message":"requests[1]: unknown NF"}}`)
	got := string(remapIndices(body, "requests[", []int{4, 9}))
	if !strings.Contains(got, "requests[9]") {
		t.Fatalf("remap produced %s", got)
	}
	ingest := []byte(`{"error":{"message":"measurements[0]: measured_pps must be positive and finite"}}`)
	if got := string(remapIndices(ingest, "measurements[", []int{7})); !strings.Contains(got, "measurements[7]") {
		t.Fatalf("ingest remap produced %s", got)
	}
	// No marker → unchanged.
	plain := []byte(`{"error":{"message":"boom"}}`)
	if string(remapIndices(plain, "requests[", []int{1})) != string(plain) {
		t.Fatal("markerless body rewritten")
	}
}

// TestIngestScatter: a /v2/ingest batch splits by each measurement's
// model key, every measurement reaches its home replica, and the
// per-replica accept counts sum into one response. A replica's
// per-element 400 proxies back with the index remapped to the
// client's batch.
func TestIngestScatter(t *testing.T) {
	a, b := newStubReplica(t, "a"), newStubReplica(t, "b")
	_, ts := testGateway(t, -1, a, b)

	var sb strings.Builder
	sb.WriteString(`{"measurements":[`)
	models := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	for i, m := range models {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"model":%q,"measured_pps":1000}`, m)
	}
	sb.WriteString(`]}`)
	status, body := post(t, ts.URL+"/v2/ingest", sb.String())
	if status != 200 {
		t.Fatalf("ingest scatter: %d %s", status, body)
	}
	var res struct {
		Accepted    int `json:"accepted"`
		Quarantined int `json:"quarantined"`
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted != len(models) || res.Quarantined != 0 {
		t.Fatalf("scatter sum: %+v", res)
	}
	if a.pathCount("/v2/ingest") == 0 || b.pathCount("/v2/ingest") == 0 {
		t.Fatalf("8 models' measurements all routed one way: a=%d b=%d",
			a.pathCount("/v2/ingest"), b.pathCount("/v2/ingest"))
	}

	// A bad element's replica-side index remaps to the client's batch
	// position: the invalid measurement is client index 2, whatever
	// sub-batch position it held.
	status, body = post(t, ts.URL+"/v2/ingest",
		`{"measurements":[{"model":"A","measured_pps":1},{"model":"A","measured_pps":1},{"model":"A","measured_pps":-5}]}`)
	if status != http.StatusBadRequest || !strings.Contains(body, "measurements[2]") {
		t.Fatalf("remapped ingest error: %d %s", status, body)
	}
}

// TestPromoteReload: a feedback promotion on one replica fans the
// reload out to the rest of the fleet, skips the promoting replica
// (which already swapped atomically), and queues catch-up reloads for
// replicas that are down so they never rejoin stale.
func TestPromoteReload(t *testing.T) {
	a, b := newStubReplica(t, "a"), newStubReplica(t, "b")
	g, _ := testGateway(t, 8, a, b)

	g.PromoteReload("yala", "FlowStats", a.url())
	if _, r := a.counts(); r != 0 {
		t.Fatalf("promoting replica was told to reload its own promotion (%d reloads)", r)
	}
	if _, r := b.counts(); r != 1 {
		t.Fatalf("sibling replica missed the promotion fan-out (%d reloads)", r)
	}

	// A down replica gets the reload queued and replayed on recovery.
	b.stop()
	g.PromoteReload("yala", "NAT", a.url())
	b.start()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, r := b.counts(); r >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered replica never received the queued promotion reload")
		}
		time.Sleep(10 * time.Millisecond) // the health loop replays over a real socket on its own ticker
	}
}
func TestAggregateStats(t *testing.T) {
	a, b := newStubReplica(t, "a"), newStubReplica(t, "b")
	_, ts := testGateway(t, -1, a, b)
	post(t, ts.URL+"/v2/models/A/yala:predict", `{}`)
	post(t, ts.URL+"/v2/models/B/yala:predict", `{}`)

	st, err := yalaclient.New(ts.URL).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 4 {
		t.Fatalf("aggregate workers %d, want 4 (2 replicas × 2)", st.Workers)
	}
	if st.Cache.Entries != 10 {
		t.Fatalf("aggregate cache entries %d, want 10", st.Cache.Entries)
	}
	if len(st.Models) != 1 || st.Models[0].NF != "A" {
		t.Fatalf("model union %+v", st.Models)
	}
	if len(st.Backends) != 2 {
		t.Fatalf("backend union %v", st.Backends)
	}
}

// TestGatewayStats checks the operator snapshot the CI smoke parses.
func TestGatewayStats(t *testing.T) {
	a, b := newStubReplica(t, "a"), newStubReplica(t, "b")
	_, ts := testGateway(t, 0, a, b)
	post(t, ts.URL+"/v2/models/FlowStats/yala:predict", `{}`)
	post(t, ts.URL+"/v2/models/FlowStats/yala:predict", `{}`) // edge hit
	post(t, ts.URL+"/v2/models/FlowStats/yala:reload", ``)

	st, err := yalaclient.New(ts.URL).GatewayStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Replicas) != 2 {
		t.Fatalf("replicas %+v", st.Replicas)
	}
	var fanouts, requests uint64
	for _, rep := range st.Replicas {
		if !rep.Healthy {
			t.Fatalf("replica %s reported unhealthy", rep.URL)
		}
		if rep.CacheEntries < 0 {
			t.Fatalf("replica %s cache entries unreported", rep.URL)
		}
		fanouts += rep.Fanouts
		requests += rep.Requests
	}
	if fanouts != 2 {
		t.Fatalf("per-replica fanouts sum %d, want 2", fanouts)
	}
	if st.Fanouts != 1 || st.EdgeHits != 1 {
		t.Fatalf("gateway counters %+v", st)
	}
	if requests == 0 {
		t.Fatal("no proxied requests counted")
	}
}
