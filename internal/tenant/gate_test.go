package tenant

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

func TestRegistryParse(t *testing.T) {
	reg, err := Parse([]byte(`{
		"tenants": [
			{"name": "acme", "key": "k-acme", "rps": 5, "burst": 10},
			{"name": "globex", "key": "k-globex", "rps": 100, "bulk_rps": 10}
		],
		"anonymous": {"rps": 1}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(reg.Tenants()); got != 3 {
		t.Fatalf("tenants = %d, want 3 (two keyed + anonymous)", got)
	}
	acme, ok := reg.Lookup("k-acme")
	if !ok || acme.Name() != "acme" {
		t.Fatalf("Lookup(k-acme) = %v, %v", acme, ok)
	}
	if acme.shared.Rate() != 5 || acme.shared.Burst() != 10 {
		t.Fatalf("acme bucket = %v/%v, want 5/10", acme.shared.Rate(), acme.shared.Burst())
	}
	globex, _ := reg.Lookup("k-globex")
	if globex.bulk == nil || globex.bulk.Rate() != 10 {
		t.Fatal("globex missing its dedicated bulk bucket")
	}
	if globex.shared.Burst() != 200 {
		t.Fatalf("default burst = %v, want 2·rps = 200", globex.shared.Burst())
	}
	anon, ok := reg.Lookup("")
	if !ok || anon.Name() != AnonymousName || !anon.Limited() {
		t.Fatalf("anonymous tenant = %v, ok=%v, limited=%v", anon, ok, anon != nil && anon.Limited())
	}
	if _, ok := reg.Lookup("nope"); ok {
		t.Fatal("unknown key resolved")
	}
}

func TestRegistryValidation(t *testing.T) {
	bad := []string{
		`{"tenants": [{"key": "k"}]}`,                                          // no name
		`{"tenants": [{"name": "a"}]}`,                                         // no key
		`{"tenants": [{"name": "a", "key": "k"}, {"name": "a", "key": "k2"}]}`, // dup name
		`{"tenants": [{"name": "a", "key": "k"}, {"name": "b", "key": "k"}]}`,  // dup key
		`{"tenants": [{"name": "a", "key": "k", "rps": -1}]}`,                  // negative
		`{"anonymous": {"key": "k"}}`,                                          // keyed anonymous
		`{"tenants": [{"name": "a", "key": "k", "requests_per_second": 5}]}`,   // unknown field
		`{"tenants": [{"name": "a", "key": "k"}], "anonymous": {"name": "a"}}`, // anon name clash
	}
	for _, src := range bad {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("Parse(%s) accepted invalid config", src)
		}
	}
}

func TestRegistryRequireKey(t *testing.T) {
	reg, err := Parse([]byte(`{"tenants": [{"name": "a", "key": "k"}], "require_key": true}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Lookup(""); ok {
		t.Fatal("keyless lookup succeeded with require_key")
	}
	g := NewGate(reg, GateConfig{})
	d := g.Admit("", ClassInteractive, time.Now())
	if d.OK || d.Status != http.StatusUnauthorized || d.Code != api.CodeUnauthenticated {
		t.Fatalf("keyless admit = %+v, want 401 unauthenticated", d)
	}
}

func TestGateRateLimit(t *testing.T) {
	reg, err := Parse([]byte(`{"tenants": [{"name": "slow", "key": "k", "rps": 2, "burst": 3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	g := NewGate(reg, GateConfig{})
	now := time.Unix(50, 0)
	for i := 0; i < 3; i++ {
		if d := g.Admit("k", ClassInteractive, now); !d.OK {
			t.Fatalf("burst request %d refused: %+v", i, d)
		}
	}
	d := g.Admit("k", ClassInteractive, now)
	if d.OK {
		t.Fatal("request beyond burst admitted")
	}
	if d.Status != http.StatusTooManyRequests || d.Code != api.CodeResourceExhausted {
		t.Fatalf("refusal = %d %s, want 429 resource_exhausted", d.Status, d.Code)
	}
	if d.RetryAfter <= 0 || d.RetryAfter > time.Second {
		t.Fatalf("RetryAfter = %v, want (0, 1s] at 2 rps", d.RetryAfter)
	}
	tn, _ := reg.Lookup("k")
	snap := tn.Snapshot()
	if snap.Requests != 3 || snap.RateLimited != 1 || snap.Shed != 1 {
		t.Fatalf("snapshot = %+v, want 3 admitted / 1 rate-limited", snap)
	}
	// The unlimited anonymous tenant is never rate-shed.
	for i := 0; i < 100; i++ {
		if d := g.Admit("", ClassInteractive, now); !d.OK {
			t.Fatalf("anonymous request refused: %+v", d)
		}
	}
}

// TestGateShedsBulkFirst pins the priority-class ordering: at a load
// score between the two thresholds, bulk sheds while interactive still
// admits; past the interactive threshold both shed.
func TestGateShedsBulkFirst(t *testing.T) {
	g := NewGate(nil, GateConfig{})
	load := 0.0
	g.SetQueueFunc(func() float64 { return load })

	now := time.Unix(100, 0)
	check := func(class Class, wantOK bool) {
		t.Helper()
		d := g.Admit("", class, now)
		if d.OK != wantOK {
			t.Fatalf("load=%.2f class=%s: OK=%v, want %v (%+v)", load, class, d.OK, wantOK, d)
		}
		if !d.OK && (d.Code != api.CodeResourceExhausted || d.RateLimited) {
			t.Fatalf("shed = %q rate-limited=%v, want a resource_exhausted overload shed", d.Code, d.RateLimited)
		}
		// Step past the score cache so the next check recomputes.
		now = now.Add(2 * scoreTTL)
	}

	load = 0.5
	check(ClassBulk, true)
	check(ClassInteractive, true)
	load = 0.8
	check(ClassBulk, false)
	check(ClassInteractive, true)
	load = 1.0
	check(ClassBulk, false)
	check(ClassInteractive, false)

	tn, _ := g.Registry().Lookup("")
	if snap := tn.Snapshot(); snap.Overloaded != 3 {
		t.Fatalf("overloaded = %d, want 3", snap.Overloaded)
	}
}

// TestGateWindowSignals feeds slow and failing samples through the
// window and checks they raise the load score without any queue signal.
func TestGateWindowSignals(t *testing.T) {
	g := NewGate(nil, GateConfig{P99SLO: 100 * time.Millisecond})
	d := Decision{OK: true, Tenant: g.reg.anon}
	now := g.epoch.Add(time.Minute)
	for i := 0; i < 64; i++ {
		g.observe(d, 300*time.Millisecond, false, now) // 3x the SLO
	}
	if score := g.computeScore(now); score < 2.9 {
		t.Fatalf("score = %.2f after sustained 3x-SLO latency, want ≈3", score)
	}

	g2 := NewGate(nil, GateConfig{})
	for i := 0; i < 64; i++ {
		g2.observe(d, time.Millisecond, i%5 == 0, now) // 20% errors
	}
	if score := g2.computeScore(now); score < 1.9 {
		t.Fatalf("score = %.2f at 20%% errors vs 10%% budget, want ≈2", score)
	}
}

// TestGateWindowAgesOut: a latency spike must not latch the gate shut.
// Only admitted requests are observed, so a gate shedding 100% gets no
// fresh samples — the spike's samples have to expire by age for the
// score to fall and the gate to reopen.
func TestGateWindowAgesOut(t *testing.T) {
	g := NewGate(nil, GateConfig{P99SLO: 100 * time.Millisecond})
	d := Decision{OK: true, Tenant: g.reg.anon}
	spike := g.epoch.Add(time.Minute)
	for i := 0; i < 64; i++ {
		g.observe(d, time.Second, false, spike) // 10x the SLO
	}
	if score := g.computeScore(spike.Add(windowAge - time.Nanosecond)); score < 9 {
		t.Fatalf("score = %.2f while the 10x-SLO spike is in the window, want ≈10", score)
	}
	if score := g.computeScore(spike.Add(windowAge + time.Nanosecond)); score != 0 {
		t.Fatalf("score = %.2f after the spike aged out with nothing admitted since, want 0", score)
	}
}

// TestShedTarpit: bucket sheds stall for shedDelay (throttling the
// abuser's connection), overload sheds answer immediately (within-quota
// tenants should hear "back off" fast). Both halves time the real
// middleware, whose tarpit is a real-time timer.
func TestShedTarpit(t *testing.T) {
	fire := func(g *Gate) (int, time.Duration) {
		h := g.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
		req := httptest.NewRequest("POST", "/v2/models/FlowStats/yala:predict", nil)
		req.Header.Set("X-API-Key", "k")
		w := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(w, req)
		return w.Code, time.Since(start)
	}
	reg, err := Parse([]byte(`{"tenants": [{"name": "capped", "key": "k", "rps": 0.001, "burst": 1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	g := NewGate(reg, GateConfig{})
	if code, _ := fire(g); code != http.StatusOK {
		t.Fatalf("first request = %d, want 200", code)
	}
	code, took := fire(g)
	if code != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", code)
	}
	if took < shedDelay {
		t.Fatalf("rate-limited shed answered in %v, want ≥ the %v tarpit", took, shedDelay)
	}

	// Overload shed: a gate over the same registry, its queue signal
	// saturated from the first request on; the tenant's empty bucket no
	// longer matters — the refusal must not stall. A stalled refusal
	// takes at least shedDelay every time, so one fast answer out of
	// five proves there is no stall without betting on a single
	// scheduling slice.
	g = NewGate(reg, GateConfig{})
	g.SetQueueFunc(func() float64 { return 2.0 })
	fastest := time.Hour
	for i := 0; i < 5; i++ {
		code, took := fire(g)
		if code != http.StatusTooManyRequests {
			t.Fatalf("overloaded request = %d, want 429", code)
		}
		fastest = min(fastest, took)
	}
	if fastest >= shedDelay {
		t.Fatalf("every overload shed stalled (fastest %v), want an immediate refusal", fastest)
	}
}

// TestTinyRateRetryAfter: a tenant file may set any positive rate, and
// the refill time of one token at a tiny rate overflows a Duration. The
// refusal must still advertise a positive, bounded wait, on the
// decision and as the HTTP Retry-After header.
func TestTinyRateRetryAfter(t *testing.T) {
	for _, rps := range []string{"1e-9", "1e-10", "1e-12", "5e-324"} {
		gate := func() *Gate {
			reg, err := Parse([]byte(`{"tenants": [{"name": "slow", "key": "k", "rps": ` + rps + `}]}`))
			if err != nil {
				t.Fatal(err)
			}
			return NewGate(reg, GateConfig{})
		}
		g := gate()
		now := time.Unix(50, 0)
		if d := g.Admit("k", ClassInteractive, now); !d.OK {
			t.Fatalf("rps %s: first request refused: %+v", rps, d)
		}
		if d := g.Admit("k", ClassInteractive, now); d.OK || d.RetryAfter != maxRetryAfter {
			t.Fatalf("rps %s: second request OK=%v RetryAfter=%v, want a 429 advertising %v", rps, d.OK, d.RetryAfter, maxRetryAfter)
		}

		h := gate().Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
		var w *httptest.ResponseRecorder
		for i := 0; i < 2; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v2/models/FlowStats/yala:predict", nil)
			req.Header.Set("X-API-Key", "k")
			w = httptest.NewRecorder()
			h.ServeHTTP(w, req)
		}
		if w.Code != http.StatusTooManyRequests || w.Header().Get("Retry-After") != "3600" {
			t.Fatalf("rps %s: HTTP refusal %d Retry-After %q, want 429 with 3600", rps, w.Code, w.Header().Get("Retry-After"))
		}
	}
}

// TestMiddleware drives the HTTP layer end to end: exemptions, auth
// extraction from both headers, the 429 envelope with Retry-After and
// request_id, and latency observation of admitted requests.
func TestMiddleware(t *testing.T) {
	reg, err := Parse([]byte(`{
		"tenants": [{"name": "capped", "key": "k-capped", "rps": 1, "burst": 1}],
		"require_key": true
	}`))
	if err != nil {
		t.Fatal(err)
	}
	g := NewGate(reg, GateConfig{})
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	// Mount the gate inside a trace-minting middleware, as serve and
	// gateway do, so refusals can carry the request ID.
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace("test-rid-1")
		g.Middleware(inner).ServeHTTP(w, r.WithContext(obs.ContextWithTrace(r.Context(), tr)))
	})

	get := func(path, bearer, apiKey string) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodGet, path, nil)
		if bearer != "" {
			r.Header.Set("Authorization", "Bearer "+bearer)
		}
		if apiKey != "" {
			r.Header.Set("X-API-Key", apiKey)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}

	// Exempt paths bypass auth entirely.
	if w := get("/healthz", "", ""); w.Code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", w.Code)
	}
	// Keyless request against require_key → 401.
	if w := get("/v2/models", "", ""); w.Code != http.StatusUnauthorized {
		t.Fatalf("keyless = %d, want 401", w.Code)
	}
	// Both header forms authenticate.
	if w := get("/v2/models", "k-capped", ""); w.Code != http.StatusOK {
		t.Fatalf("bearer auth = %d, want 200", w.Code)
	}
	if w := get("/v2/models", "", "k-capped"); w.Code != http.StatusTooManyRequests {
		// burst 1 consumed above; this one must be the 429 path.
		t.Fatalf("x-api-key over burst = %d, want 429", w.Code)
	}

	// Pin the 429 envelope + Retry-After.
	w := get("/v2/models", "k-capped", "")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-limit = %d, want 429", w.Code)
	}
	ra, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer ≥ 1", w.Header().Get("Retry-After"))
	}
	var body api.ErrorBody
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Code != api.CodeResourceExhausted || body.Error.RequestID != "test-rid-1" || body.Error.Message == "" {
		t.Fatalf("envelope = %+v", body.Error)
	}

	tn, _ := reg.Lookup("k-capped")
	snap := tn.Snapshot()
	if snap.Requests != 1 || snap.RateLimited != 2 {
		t.Fatalf("snapshot = %+v, want 1 admitted / 2 rate-limited", snap)
	}
}

// TestClassifyPath pins the bulk/interactive split.
func TestClassifyPath(t *testing.T) {
	bulk := []string{"/v2/models:batchPredict", "/v2/models/m:batchPredict", "/v2/cluster/runs", "/v2/cluster/runs/7"}
	for _, p := range bulk {
		if ClassifyPath(p) != ClassBulk {
			t.Errorf("ClassifyPath(%s) = interactive, want bulk", p)
		}
	}
	interactive := []string{"/v2/models/m:predict", "/v2/models/m:admit", "/v2/ingest", "/v2/models"}
	for _, p := range interactive {
		if ClassifyPath(p) != ClassInteractive {
			t.Errorf("ClassifyPath(%s) = bulk, want interactive", p)
		}
	}
}
