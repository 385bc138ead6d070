package tenant

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// GateConfig tunes the admission gate. The zero value is completed by
// NewGate with the defaults below.
type GateConfig struct {
	// BulkShedAt is the load score at which bulk requests shed; default
	// 0.75. Bulk work always sheds before interactive work.
	BulkShedAt float64
	// InteractiveShedAt is the load score at which interactive requests
	// shed; default 0.95 — only near saturation.
	InteractiveShedAt float64
	// P99SLO is the latency objective the windowed p99 is normalized
	// against; default 250ms.
	P99SLO time.Duration
	// MaxErrorRate normalizes the windowed server-error rate; default
	// 0.10 (a 10% error rate alone saturates the signal).
	MaxErrorRate float64
	// WindowSize is the ring-buffer sample count behind the windowed p99
	// and error-rate signals; default 512.
	WindowSize int
	// WindowAge bounds how long a completed request keeps feeding the
	// pressure signals; default 10s. Only admitted requests are
	// observed, so without an age-out a latency spike that drives the
	// gate to shed everything would starve the window of fresh samples
	// and latch the gate shut on the spike's stale p99 forever.
	WindowAge time.Duration
	// ShedDelay stalls each rate-limited refusal before the 429 is
	// written, tarpitting abusers: a keep-alive client hammering past
	// its quota spends its connection's time waiting on in-flight 429s
	// instead of burning server CPU with ever more attempts. Only
	// bucket sheds stall — overload sheds hit within-quota tenants who
	// should hear "back off" as fast as possible. Default 10ms;
	// negative disables.
	ShedDelay time.Duration
}

func (c *GateConfig) fillDefaults() {
	if c.BulkShedAt <= 0 {
		c.BulkShedAt = 0.75
	}
	if c.InteractiveShedAt <= 0 {
		c.InteractiveShedAt = 0.95
	}
	if c.P99SLO <= 0 {
		c.P99SLO = 250 * time.Millisecond
	}
	if c.MaxErrorRate <= 0 {
		c.MaxErrorRate = 0.10
	}
	if c.WindowSize <= 0 {
		c.WindowSize = 512
	}
	if c.WindowAge <= 0 {
		c.WindowAge = 10 * time.Second
	}
	if c.ShedDelay == 0 {
		c.ShedDelay = 10 * time.Millisecond
	}
	if c.ShedDelay < 0 {
		c.ShedDelay = 0
	}
}

// sample is one completed request in the sliding window.
type sample struct {
	seconds float64
	isErr   bool
	at      int64 // mono nanos since the gate's epoch
}

// Gate is the admission controller: it resolves tenants, charges token
// buckets, and sheds load from combined pressure signals. One Gate is
// shared by every handler on a server (and its metrics middleware); all
// methods are safe for concurrent use.
type Gate struct {
	reg *Registry
	cfg GateConfig

	// queue reports embedding-layer queue occupancy in [0,1] (serve:
	// requests waiting for a compute slot; gateway: inflight vs fleet
	// capacity). Optional.
	queue atomic.Pointer[func() float64]

	// Sliding window over completed requests feeding the p99 and
	// error-rate pressure signals.
	winMu  sync.Mutex
	win    []sample
	winPos int
	winLen int

	// Cached load score, recomputed at most every scoreTTL so the
	// admission fast path is two atomic loads when fresh.
	scoreBits atomic.Uint64 // math.Float64bits of the cached score
	scoreAt   atomic.Int64  // mono nanos of the cache fill
	scoreMu   sync.Mutex
	epoch     time.Time

	shedTotal atomic.Uint64
	obsReg    atomic.Pointer[obs.Registry]
}

// scoreTTL bounds how stale the cached load score may be.
const scoreTTL = 100 * time.Millisecond

// NewGate builds a gate over a tenant registry. A nil registry gets the
// anonymous-only default.
func NewGate(reg *Registry, cfg GateConfig) *Gate {
	if reg == nil {
		reg = AnonymousOnly()
	}
	cfg.fillDefaults()
	g := &Gate{reg: reg, cfg: cfg, epoch: time.Now()}
	g.win = make([]sample, cfg.WindowSize)
	return g
}

// Registry returns the tenant registry the gate admits against.
func (g *Gate) Registry() *Registry { return g.reg }

// SetQueueFunc installs the embedding layer's queue-occupancy signal,
// a func returning [0,1]. Call before serving; may be nil.
func (g *Gate) SetQueueFunc(fn func() float64) {
	if fn == nil {
		g.queue.Store(nil)
		return
	}
	g.queue.Store(&fn)
}

// SetObs registers the yala_tenant_* series on reg and gives each
// tenant its latency histogram. Call once, before serving.
func (g *Gate) SetObs(reg *obs.Registry) {
	g.obsReg.Store(reg)
	for _, t := range g.reg.Tenants() {
		t := t
		reg.CounterFunc("yala_tenant_requests_total", t.Requests, "tenant", t.name)
		reg.CounterFunc("yala_tenant_shed_total", t.rateLimited.Load, "tenant", t.name, "reason", "rate_limited")
		reg.CounterFunc("yala_tenant_shed_total", t.overloaded.Load, "tenant", t.name, "reason", "overloaded")
		t.latency.Store(reg.Histogram("yala_tenant_request_seconds", nil, "tenant", t.name))
	}
	reg.GaugeFunc("yala_gate_load_score", g.LoadScore)
}

// Decision is the outcome of one admission check.
type Decision struct {
	// OK admits the request; the remaining fields describe the refusal
	// when false.
	OK     bool
	Tenant *Tenant
	Class  Class
	// Status/Code/Message shape the error response: 401 unauthenticated
	// or 429 resource_exhausted.
	Status  int
	Code    string
	Message string
	// RetryAfter is the advertised backoff on 429s; 0 on 401s.
	RetryAfter time.Duration
	// RateLimited marks a bucket shed (as opposed to an overload shed);
	// these refusals are tarpitted by ShedDelay.
	RateLimited bool
}

// overloadRetryAfter is the Retry-After advertised on overload sheds
// (rate-limit sheds advertise the bucket's own refill time).
const overloadRetryAfter = time.Second

// Admit decides one request: resolve the key to a tenant, shed by load
// score (bulk first), then charge the class's token bucket.
func (g *Gate) Admit(key string, class Class, now time.Time) Decision {
	t, ok := g.reg.Lookup(key)
	if !ok {
		msg := "unknown API key"
		if key == "" {
			msg = "an API key is required; pass Authorization: Bearer <key> or X-API-Key"
		}
		return Decision{
			Status:  http.StatusUnauthorized,
			Code:    api.CodeUnauthenticated,
			Message: msg,
		}
	}
	// Overload shedding first: a saturated server refuses work even
	// from within-quota tenants, bulk class at a lower score.
	threshold := g.cfg.InteractiveShedAt
	if class == ClassBulk {
		threshold = g.cfg.BulkShedAt
	}
	if score := g.loadScoreAt(now); score >= threshold {
		t.overloaded.Add(1)
		g.shedTotal.Add(1)
		return Decision{
			Tenant:     t,
			Class:      class,
			Status:     http.StatusTooManyRequests,
			Code:       api.CodeResourceExhausted,
			Message:    fmt.Sprintf("server overloaded (load score %.2f), %s traffic is being shed", score, class),
			RetryAfter: overloadRetryAfter,
		}
	}
	if b := t.bucketFor(class); b != nil {
		if ok, retry := b.Allow(now); !ok {
			t.rateLimited.Add(1)
			g.shedTotal.Add(1)
			return Decision{
				Tenant:      t,
				Class:       class,
				Status:      http.StatusTooManyRequests,
				Code:        api.CodeResourceExhausted,
				Message:     fmt.Sprintf("tenant %q exceeded its rate limit (%.4g rps, burst %.4g)", t.name, b.Rate(), b.Burst()),
				RetryAfter:  retry,
				RateLimited: true,
			}
		}
	}
	t.admitted[class].Add(1)
	return Decision{OK: true, Tenant: t, Class: class}
}

// Admission is one request's pass through the gate: the decision, and
// for an admitted request the open SLO observation Done closes. It is
// the transport-neutral entry every front door (the HTTP Middleware,
// serve's yalawire listener) admits through, so "what counts as a
// latency sample" and "what counts as a server error" are decided once.
type Admission struct {
	Decision
	gate  *Gate
	start time.Time
}

// Enter admits one request arriving at now. A nil gate admits
// everything and observes nothing, so callers need no "is a gate
// mounted" branch. now is the caller's clock read — a front door
// stamps the request's start with the same one.
func (g *Gate) Enter(key string, class Class, now time.Time) Admission {
	if g == nil {
		return Admission{Decision: Decision{OK: true}}
	}
	return Admission{Decision: g.Admit(key, class, now), gate: g, start: now}
}

// Done closes an admitted request with the status it answered and the
// instant it did. A 499 is not a sample at all — the client hung up,
// and how long an abandoned request lingered measures the client's
// impatience, not the server's SLO; a burst of disconnects must not
// push the windowed error rate toward shedding live traffic. Anything
// ≥ 500 is an error.
func (a Admission) Done(status int, now time.Time) {
	if a.gate == nil || !a.OK || status == api.StatusClientClosedRequest {
		return
	}
	a.gate.observe(a.Decision, now.Sub(a.start), status >= http.StatusInternalServerError, now.Sub(a.gate.epoch))
}

// Observe records one completed, admitted request: its latency lands in
// the tenant's histogram and in the sliding window behind the pressure
// signals.
func (g *Gate) Observe(d Decision, dur time.Duration, isErr bool) {
	g.observe(d, dur, isErr, time.Since(g.epoch))
}

// observe is Observe for a request that completed at after the gate's
// epoch.
func (g *Gate) observe(d Decision, dur time.Duration, isErr bool, at time.Duration) {
	if d.Tenant == nil {
		return
	}
	if isErr {
		d.Tenant.errors.Add(1)
	}
	if h := d.Tenant.latency.Load(); h != nil {
		h.Observe(dur.Seconds())
	}
	g.winMu.Lock()
	g.win[g.winPos] = sample{seconds: dur.Seconds(), isErr: isErr, at: at.Nanoseconds()}
	g.winPos = (g.winPos + 1) % len(g.win)
	if g.winLen < len(g.win) {
		g.winLen++
	}
	g.winMu.Unlock()
}

// LoadScore returns the current combined pressure score: the maximum of
// queue occupancy, windowed p99 normalized by the SLO, and windowed
// error rate normalized by MaxErrorRate. 0 is idle; 1 is saturated on
// at least one signal; values above 1 are possible (e.g. p99 past SLO).
func (g *Gate) LoadScore() float64 { return g.loadScoreAt(time.Now()) }

func (g *Gate) loadScoreAt(now time.Time) float64 {
	mono := now.Sub(g.epoch).Nanoseconds()
	if at := g.scoreAt.Load(); at != 0 && mono-at < int64(scoreTTL) {
		return math.Float64frombits(g.scoreBits.Load())
	}
	g.scoreMu.Lock()
	defer g.scoreMu.Unlock()
	if at := g.scoreAt.Load(); at != 0 && mono-at < int64(scoreTTL) {
		return math.Float64frombits(g.scoreBits.Load())
	}
	score := g.computeScore()
	g.scoreBits.Store(math.Float64bits(score))
	g.scoreAt.Store(mono)
	return score
}

func (g *Gate) computeScore() float64 {
	var score float64
	if fn := g.queue.Load(); fn != nil {
		if q := (*fn)(); q > score {
			score = q
		}
	}
	p99, errRate := g.windowStats()
	if s := p99 / g.cfg.P99SLO.Seconds(); s > score {
		score = s
	}
	if s := errRate / g.cfg.MaxErrorRate; s > score {
		score = s
	}
	return score
}

// windowStats computes the p99 latency (seconds) and error rate over
// the samples younger than WindowAge; zeros when too few to be
// meaningful. The age cut means a spike's samples expire even when
// full-on shedding leaves nothing admitted to overwrite them.
func (g *Gate) windowStats() (p99, errRate float64) {
	cutoff := time.Since(g.epoch).Nanoseconds() - g.cfg.WindowAge.Nanoseconds()
	g.winMu.Lock()
	lat := make([]float64, 0, g.winLen)
	errs := 0
	for i := 0; i < g.winLen; i++ {
		if g.win[i].at < cutoff {
			continue
		}
		lat = append(lat, g.win[i].seconds)
		if g.win[i].isErr {
			errs++
		}
	}
	g.winMu.Unlock()
	n := len(lat)
	if n < 16 {
		return 0, 0
	}
	k := (n * 99) / 100
	if k >= n {
		k = n - 1
	}
	p99 = nthSmallest(lat, k)
	return p99, float64(errs) / float64(n)
}

// nthSmallest returns the k-th smallest element (0-based) by quickselect.
func nthSmallest(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := a[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return a[k]
}

// ShedTotal returns the number of requests this gate has shed (429s).
func (g *Gate) ShedTotal() uint64 { return g.shedTotal.Load() }

// Snapshots returns per-tenant accounting rows in stable name order.
func (g *Gate) Snapshots() []Snapshot {
	ts := g.reg.Tenants()
	out := make([]Snapshot, len(ts))
	for i, t := range ts {
		out[i] = t.Snapshot()
	}
	return out
}
