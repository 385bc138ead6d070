// Package gateway is the scale-out front end for the prediction-serving
// subsystem: a thin coordinator that routes /v2 traffic across N
// interchangeable serve replicas and survives replica failure — the
// cluster-head shape the related clustered-systems work converges on,
// applied to the serving tier itself.
//
// Routing is rendezvous hashing on (NF, hardware class, backend), so
// every scenario for one model keeps landing on the same replica and
// that replica's LRU stays hot for its key range; when a replica is
// marked down — by the active health loop (GET /healthz probes) or
// passively by a transport failure mid-proxy — the same ranking yields
// the next-best replica, which is exactly consistent-hashing failover:
// only the dead replica's key range moves. Every proxied verb is
// idempotent (predictions are deterministic), so a transport failure
// retries transparently on the next replica in rank order and clients
// see zero errors across a replica kill.
//
// The gateway reaches a replica through one HTTP client (send's HTTP
// half, a bounded read) plus the wire pool a replica advertises.
// Routed traffic and reloads ride wire when it is up; control reads —
// probes, wire discovery, Attach, both stats handlers and the /metrics
// scrape — stay on HTTP and are not timed as upstream latency.
//
// The mutating custom method (:reload) fans out to every replica so no
// replica serves a stale model. One function (reload) sends every
// reload — a client's fan-out, a feedback promotion, a pending replay —
// under one rule: a 2xx applied it; a transport error, 5xx or 429
// queues it for replay by the health loop (or the next Attach), so a
// replica never rejoins stale; any other 4xx means the reload is
// invalid everywhere and nothing is queued. :batchPredict
// scatters its elements to their home replicas in per-replica
// sub-batches and gathers the responses back in request order.
//
// The gateway also keeps an edge response cache (the same sharded LRU
// the replicas use): deterministic 200s for the model-scoped custom
// methods are memoized as raw bytes keyed on (path, body), which takes
// the whole JSON decode/validate/encode pipeline off the warm path.
// Reload fan-outs evict affected edge entries conservatively (any entry
// naming the NF), mirroring the replicas' own targeted eviction.
//
// Telemetry spans the hop: the gateway adopts or mints an X-Request-Id
// and forwards it upstream so one ID names a request at the client, the
// gateway and the replica; GET /metrics serves the gateway's own
// gateway_* series (routing counters, per-replica health and upstream
// latency, edge-cache state) followed by the fleet-merged replica
// exposition — counters sum, uptime reports the oldest replica's.
package gateway

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tenant"
	"repro/internal/wire"
	"repro/pkg/yalaclient"
)

// maxEdgeEntryBytes bounds one memoized edge-cache response.
const maxEdgeEntryBytes = 1 << 20

// Config shapes a Gateway.
type Config struct {
	// Backends are the replica base URLs traffic shards across.
	Backends []string
	// Gate, when set, mounts the multi-tenant admission gate on the
	// gateway surface: API-key auth, per-tenant rate limits, and load
	// shedding before any fan-out (see internal/tenant).
	Gate *tenant.Gate
	// HealthInterval is the active probe period (default 500ms).
	HealthInterval time.Duration
	// EdgeCacheEntries sizes the gateway's response cache: 0 selects the
	// default 8192, negative disables edge caching entirely.
	EdgeCacheEntries int
	// AccessLog emits one log line per gateway request (request ID,
	// method, path, status, latency).
	AccessLog bool
}

// healthTimeout bounds one control read (probe, stats, scrape) and one
// replica's answer to a reload.
const healthTimeout = 2 * time.Second

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.EdgeCacheEntries == 0 {
		c.EdgeCacheEntries = 8192
	}
	return c
}

// replica is one slot in the gateway's hash ring. The slot is the
// stable identity keys hash against; which backend (if any) currently
// occupies it lives in the atomically-swapped endpoint (membership.go),
// so an autoscaler can attach and detach backends without reshuffling
// any other slot's key range.
type replica struct {
	slot int // ring position — the hash identity

	// ep is the current attachment; nil marks the slot vacant (skipped
	// by routing, fan-outs queue on pending instead of dialing).
	ep atomic.Pointer[endpoint]

	healthy atomic.Bool
	// failures counts markDown calls, so a probe can tell that an
	// exchange failed while it was out (see probeAll).
	failures atomic.Uint64

	// pending holds reloads this slot missed while its backend was down
	// or the slot vacant, keyed "backend|nf"; the health loop (or the
	// next Attach) replays them so a rejoining replica never serves a
	// stale model. The seq guards replay-vs-new-failure races: a drain
	// only clears the entry it actually replayed.
	mu      sync.Mutex
	pending map[string]pendingReload
}

type pendingReload struct {
	req reloadReq
	seq uint64
}

// reloadReq is one reload as every replica is sent it. backend and nf
// name its pending-queue entry and the edge entries it evicts; uri,
// contentType and body are the exchange itself, replayed verbatim.
type reloadReq struct {
	backend, nf      string
	uri, contentType string
	body             []byte
}

// Gateway routes /v2 traffic across replicas.
type Gateway struct {
	cfg      Config
	replicas []*replica
	httpc    *http.Client
	edge     *serve.Cache

	requests   atomic.Uint64
	retries    atomic.Uint64
	fanouts    atomic.Uint64
	coalesced  atomic.Uint64
	canceled   atomic.Uint64
	pendingSeq atomic.Uint64
	ridCounter atomic.Uint64
	inflight   atomic.Int64

	// flight coalesces concurrent identical cacheable requests: while one
	// leader proxies (method, URI, body) upstream, followers with the same
	// tuple wait for its answer instead of dialing the replica themselves.
	// The deterministic verbs this applies to make sharing safe, and the
	// edge cache only helps after a response lands — coalescing is what
	// keeps a thundering herd on a cold key down to one upstream call.
	flight flight.Group[string, proxyResult]

	obs        *obs.Registry
	reqSeconds *obs.Histogram

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New starts a gateway over the configured replicas and its health
// loop. Replicas start optimistically healthy — the first probe (or the
// first failed proxy) corrects that — so a gateway booted before its
// replicas converges instead of blackholing. Call Close to stop.
func New(cfg Config) (*Gateway, error) {
	return newGateway(cfg, len(cfg.Backends))
}

// newGateway is New over a hash ring of slots ≥ len(cfg.Backends)
// positions, the first len(cfg.Backends) of them attached. Keys hash
// against slot indices, so an elastic pool sizes the ring for its
// maximum fleet and keeps key→slot assignment stable as replicas come
// and go.
func newGateway(cfg Config, slots int) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: need at least one replica backend URL")
	}
	// The one HTTP client toward every replica (roundTrip) keeps a deep
	// idle-connection pool per replica, like the SDK's.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 256
	g := &Gateway{
		cfg:   cfg,
		httpc: &http.Client{Transport: tr},
		edge:  serve.NewCache(cfg.EdgeCacheEntries),
		stop:  make(chan struct{}),
	}
	g.initObs()
	for slot := 0; slot < slots; slot++ {
		rep := &replica{slot: slot, pending: map[string]pendingReload{}}
		if slot < len(cfg.Backends) {
			// A phantom empty-URL replica would boot optimistically healthy
			// and then fail every send and probe forever — reject the typo
			// (e.g. a trailing comma) at construction.
			ep, err := newEndpoint(cfg.Backends[slot])
			if err != nil {
				return nil, fmt.Errorf("gateway: backend %d: %w", slot, err)
			}
			g.registerEndpointObs(rep, ep)
			rep.ep.Store(ep)
			rep.healthy.Store(true)
		}
		g.replicas = append(g.replicas, rep)
	}
	if cfg.Gate != nil {
		// The gate's queue-pressure signal is the gateway's in-flight
		// request count against the attached fleet's nominal capacity;
		// an autoscaler may re-wire this with its own target.
		cfg.Gate.SetQueueFunc(func() float64 {
			active := g.attachedCount()
			if active == 0 {
				return 1
			}
			return float64(g.inflight.Load()) / float64(active*defaultInflightTarget)
		})
		cfg.Gate.SetObs(g.obs)
	}
	g.wg.Add(1)
	go g.healthLoop()
	return g, nil
}

// defaultInflightTarget is the per-replica in-flight request count the
// gate's queue signal normalizes against when no autoscaler overrides
// it.
const defaultInflightTarget = 32

// Close stops the health loop and drops the wire upstream pools.
// In-flight proxied requests finish on their own contexts.
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
	for _, rep := range g.replicas {
		if ep := rep.ep.Load(); ep != nil {
			ep.closeWire()
		}
	}
}

// healthLoop actively probes every replica and replays missed reload
// fan-outs on recovery. Passive marking (a failed proxy) reacts faster
// than the probe period; this loop is what brings replicas back. The
// first probe runs at once, so wire upstreams are discovered at boot
// rather than one HealthInterval later.
func (g *Gateway) healthLoop() {
	defer g.wg.Done()
	ticker := time.NewTicker(g.cfg.HealthInterval)
	defer ticker.Stop()
	g.probeAll()
	for {
		select {
		case <-g.stop:
			return
		case <-ticker.C:
			g.probeAll()
		}
	}
}

func (g *Gateway) probeAll() {
	each(g.replicas, func(_ int, rep *replica, ep *endpoint) {
		failures := rep.failures.Load()
		if _, err := g.fetch(context.Background(), ep, "/healthz"); err != nil {
			rep.markDown()
			return
		}
		g.drainPending(rep)
		g.discoverWire(ep)
		// An exchange that failed while this probe was out is newer
		// evidence than the probe's answer: the next probe decides.
		if rep.failures.Load() == failures {
			rep.healthy.Store(true)
		}
	})
}

// markDown marks the replica unhealthy after a failed exchange.
func (rep *replica) markDown() {
	rep.failures.Add(1)
	rep.healthy.Store(false)
}

// each runs fn concurrently on every attached replica in reps — ep is
// the endpoint snapshot the call works on, so a concurrent Detach
// cannot nil it mid-use — and waits for all of them. It returns the
// snapshots by index; vacant slots are nil and never see fn.
func each(reps []*replica, fn func(i int, rep *replica, ep *endpoint)) []*endpoint {
	eps := make([]*endpoint, len(reps))
	var wg sync.WaitGroup
	for i, rep := range reps {
		if eps[i] = rep.ep.Load(); eps[i] != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(i, rep, eps[i])
			}()
		}
	}
	wg.Wait()
	return eps
}

// fetch is the gateway's control read: GET path from one replica over
// HTTP through roundTrip (bounded by api.MaxBodyBytes) within
// healthTimeout, anything but a 200 an error. It is deliberately not
// timed into gateway_upstream_seconds, which measures routed traffic.
func (g *Gateway) fetch(ctx context.Context, ep *endpoint, path string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, healthTimeout)
	defer cancel()
	status, _, body, err := g.roundTrip(ctx, http.MethodGet, ep.url+path, "", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("gateway: GET %s%s answered %d", ep.url, path, status)
	}
	return body, err
}

// stats fetches one replica's /v2/stats.
func (g *Gateway) stats(ctx context.Context, ep *endpoint) (st yalaclient.Stats, err error) {
	body, err := g.fetch(ctx, ep, "/v2/stats")
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	return st, err
}

// discoverWire asks a healthy replica (once per attachment, re-armed
// by dropWire) whether it advertises a yalawire listener, and builds
// the binary upstream pool when it does. A replica without one simply
// stays on HTTP; a failed stats probe re-arms so a later probe
// retries.
func (g *Gateway) discoverWire(ep *endpoint) {
	if ep.wireProbed.Swap(true) {
		return
	}
	st, err := g.stats(context.Background(), ep)
	if err != nil {
		ep.wireProbed.Store(false)
		return
	}
	if st.WireAddr != "" {
		ep.wire.Store(wire.NewPool(st.WireAddr, "", 8))
	}
}

// drainPending replays, one at a time through reload, the reloads a
// replica missed while down. Server-side reloads are idempotent (drop
// model, evict entries), so a duplicate replay is harmless. An entry
// clears once its replay is applied or found invalid. A replay that
// reload queues again is re-added with a fresh seq, so the seq check
// below leaves it for the next probe.
func (g *Gateway) drainPending(rep *replica) {
	rep.mu.Lock()
	missed := make([]pendingReload, 0, len(rep.pending))
	for _, p := range rep.pending {
		missed = append(missed, p)
	}
	rep.mu.Unlock()
	for _, p := range missed {
		g.reload(context.Background(), []*replica{rep}, p.req)
		key := p.req.backend + "|" + p.req.nf
		rep.mu.Lock()
		if cur, ok := rep.pending[key]; ok && cur.seq == p.seq {
			delete(rep.pending, key)
		}
		rep.mu.Unlock()
	}
}

func (g *Gateway) addPending(rep *replica, req reloadReq) {
	rep.mu.Lock()
	rep.pending[req.backend+"|"+req.nf] = pendingReload{req: req, seq: g.pendingSeq.Add(1)}
	rep.mu.Unlock()
}

// hashSlot scores one (key, replica slot) pair for rendezvous ranking.
// Hashing the slot index — not the URL — keeps the key→replica map
// stable across restarts: in-process replicas get fresh ephemeral ports
// every boot, and URL-based hashing would reshuffle every key range
// (cold-starting every replica cache) on each restart.
func hashSlot(key string, slot int) uint64 {
	h := fnv.New64a()
	io.WriteString(h, key)
	h.Write([]byte{0, byte(slot), byte(slot >> 8)})
	return h.Sum64()
}

// rankedReplica pairs a slot with the endpoint snapshot routing will
// dial — snapshotted once so a concurrent Detach cannot nil it mid-use.
type rankedReplica struct {
	rep *replica
	ep  *endpoint
}

// rank orders the attached replicas for a routing key: healthy ones in
// rendezvous order (highest score first), then unhealthy ones as a last
// resort — trying a probably-dead replica beats failing outright when
// passive marking lags a recovery. Vacant slots never rank: there is
// nothing to dial. Health and endpoint are snapshotted once so a
// concurrent flip cannot drop a replica from the ordering.
func (g *Gateway) rank(key string) []rankedReplica {
	type scored struct {
		rankedReplica
		healthy bool
		h       uint64
	}
	all := make([]scored, 0, len(g.replicas))
	for _, rep := range g.replicas {
		ep := rep.ep.Load()
		if ep == nil {
			continue
		}
		all = append(all, scored{rankedReplica{rep, ep}, rep.healthy.Load(), hashSlot(key, rep.slot)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].healthy != all[j].healthy {
			return all[i].healthy
		}
		return all[i].h > all[j].h
	})
	out := make([]rankedReplica, len(all))
	for i, s := range all {
		out[i] = s.rankedReplica
	}
	return out
}

// route is one request's routing decision.
type route struct {
	key         string // rendezvous key
	cacheable   bool   // deterministic 200, edge-cacheable
	fanout      bool   // mutating verb: all replicas
	backend, nf string // fan-out target from the path
}

// classify derives the routing decision from the path alone.
// Model-scoped /v2 traffic hashes on (nf, hw, backend) so one model's
// scenarios keep hitting the replica whose LRU already holds them; the
// model-less verbs (:compare, :diagnose) hash with the default backend,
// which co-locates them with the yala predictions they are assembled
// from. Everything else hashes on the path — which, usefully, keeps a
// paginated /v2/models walk on one replica so its offset tokens stay
// coherent while health holds.
func classify(r *http.Request) route {
	rt, err := api.ParseRoute(r.URL.Path)
	switch {
	case err != nil:
		// Not a model method, or a malformed model ID: hash on the path;
		// the replica owns validation and its 404/400 proxies back.
		return route{key: "path|" + r.URL.Path}
	case rt.Verb == "reload" && rt.Backend != "" && r.Method == http.MethodPost:
		// Only a POST of the backend-scoped :reload mutates; any other
		// method proxies to one replica, whose method-bound route answers
		// 405 — a GET must never fan out across the fleet (or count as a
		// fan-out).
		return route{fanout: true, backend: rt.Backend, nf: rt.NF}
	}
	return route{key: modelKey(rt.NF, rt.HW, rt.Backend), cacheable: r.Method == http.MethodPost}
}

// modelKey is the rendezvous key for one (nf, hw, backend) model.
func modelKey(nf, hw, backendName string) string {
	if backendName == "" {
		backendName = yalaclient.DefaultBackend
	}
	return "model|" + nf + "@" + hw + "|" + strings.ToLower(backendName)
}

// Handler exposes the gateway over HTTP. Everything not handled locally
// (health, gateway stats, aggregate stats, batch scatter) proxies to a
// replica chosen by the request's routing key.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /v2/gateway/stats", g.handleGatewayStats)
	mux.HandleFunc("GET /v2/stats", g.handleAggregateStats)
	mux.HandleFunc("POST /v2/models:batchPredict", g.handleBatchScatter)
	mux.HandleFunc("POST /v2/ingest", g.handleIngestScatter)
	mux.HandleFunc("/", g.handleProxy)
	var h http.Handler = mux
	if g.cfg.Gate != nil {
		// The admission gate sits inside withObs — its 429/401 envelopes
		// carry the request ID the trace middleware minted — and outside
		// the routing mux, so shed requests never consume a replica.
		h = g.cfg.Gate.Middleware(h)
	}
	return g.withObs(h)
}

// handleHealthz reports gateway liveness: up while at least one replica
// is healthy — the gateway itself holds no models, so "can serve"
// means "can route".
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	for _, rep := range g.replicas {
		if rep.ep.Load() != nil && rep.healthy.Load() {
			w.Write([]byte("ok\n"))
			return
		}
	}
	api.WriteError(w, r, http.StatusServiceUnavailable, api.CodeUnavailable, "no healthy replica")
}

// edgeEntry is one memoized raw response.
type edgeEntry struct {
	contentType string
	body        []byte
}

// edgeKey keys one deterministic response: the full request URI (which
// carries nf, hw, backend and verb) plus the exact body bytes.
func edgeKey(uri string, body []byte) string {
	return uri + "\x00" + string(body)
}

// proxyResult is one upstream answer, shaped for sharing across
// coalesced requests.
type proxyResult struct {
	replicaURL string
	status     int
	hdr        http.Header
	body       []byte
}

// handleProxy routes one request: fan-outs go everywhere, cacheable
// verbs consult the edge cache and coalesce concurrent identical
// misses down to one upstream call, everything else forwards to the
// ranked replica with transparent failover.
func (g *Gateway) handleProxy(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	body, ok := api.ReadBody(w, r)
	if !ok {
		return
	}
	rt := classify(r)
	if rt.fanout {
		g.fanoutReload(w, r, rt, body)
		return
	}
	var ekey string
	if rt.cacheable {
		ekey = edgeKey(r.URL.RequestURI(), body)
		if v, ok := g.edge.Get(ekey); ok {
			e := v.(edgeEntry)
			if e.contentType != "" {
				w.Header().Set("Content-Type", e.contentType)
			}
			w.Header().Set("X-Gateway-Cache", "hit")
			w.Write(e.body)
			return
		}
		res, shared, err := g.flight.Coalesce(r.Method+"\x00"+ekey, func() (proxyResult, error) {
			// The leader computes on behalf of every coalesced waiter, so
			// its lifetime must not be bound to its own client: a leader
			// whose client hangs up mid-flight still owes the followers an
			// answer. The upstream round trip is bounded by the replica,
			// not the departed caller.
			return g.proxyOnce(context.WithoutCancel(r.Context()), rt, r, body)
		})
		if err != nil {
			g.writeProxyError(w, r, err)
			return
		}
		if shared {
			g.coalesced.Add(1)
			// Followers reuse the leader's response bytes but keep their
			// own X-Request-Id (already set by withObs) — the leader's rid
			// names the one upstream call, not every waiter.
			if ct := res.hdr.Get("Content-Type"); ct != "" {
				w.Header().Set("Content-Type", ct)
			}
			w.Header().Set("X-Gateway-Coalesced", "hit")
			w.Header().Set("X-Gateway-Replica", res.replicaURL)
			w.WriteHeader(res.status)
			w.Write(res.body)
			return
		}
		api.CopyForwarded(w.Header(), res.hdr)
		w.Header().Set("X-Gateway-Replica", res.replicaURL)
		w.WriteHeader(res.status)
		w.Write(res.body)
		return
	}
	ep, status, hdr, respBody, err := g.sendWithFailover(r.Context(), rt.key, r.Method, r.URL.RequestURI(), r.Header.Get("Content-Type"), body)
	if err != nil {
		g.writeProxyError(w, r, err)
		return
	}
	api.CopyForwarded(w.Header(), hdr)
	w.Header().Set("X-Gateway-Replica", ep.url)
	w.WriteHeader(status)
	w.Write(respBody)
}

// proxyOnce performs one cacheable upstream round trip and memoizes a
// 200 at the edge. It runs once per coalesced group, on the leader.
func (g *Gateway) proxyOnce(ctx context.Context, rt route, r *http.Request, body []byte) (proxyResult, error) {
	ekey := edgeKey(r.URL.RequestURI(), body)
	// The response may predate a reload fan-out that sweeps the edge
	// while it is in flight: PutAt drops it then.
	epoch := g.edge.Epoch()
	ep, status, hdr, respBody, err := g.sendWithFailover(ctx, rt.key, r.Method, r.URL.RequestURI(), r.Header.Get("Content-Type"), body)
	if err != nil {
		return proxyResult{}, err
	}
	if status == http.StatusOK && len(respBody) <= maxEdgeEntryBytes {
		g.edge.PutAt(ekey, edgeEntry{contentType: hdr.Get("Content-Type"), body: respBody}, epoch)
	}
	return proxyResult{replicaURL: ep.url, status: status, hdr: hdr, body: respBody}, nil
}

// writeProxyError renders an upstream failure. A request whose own
// client already gave up answers 499 (client closed request) instead
// of 503: the failure is the caller's departure, not fleet overload,
// and the tenant gate's shed signal must not see a canceled flood as
// server errors (the 499 is excluded from its windowed error rate).
func (g *Gateway) writeProxyError(w http.ResponseWriter, r *http.Request, err error) {
	if r.Context().Err() != nil {
		api.WriteError(w, r, api.StatusClientClosedRequest, api.CodeCanceled, "client canceled request: "+err.Error())
		return
	}
	api.WriteError(w, r, http.StatusServiceUnavailable, api.CodeUnavailable, fmt.Sprintf("no replica answered: %v", err))
}

// sendWithFailover tries the key's replicas in rank order. A transport
// failure marks the replica down and moves on — every verb routed here
// is idempotent (predictions are deterministic; reloads fan out
// elsewhere), so a retry after an ambiguous failure is safe. HTTP error
// statuses are replica answers, not failures: they proxy back as-is.
func (g *Gateway) sendWithFailover(ctx context.Context, key, method, uri, contentType string, body []byte) (*endpoint, int, http.Header, []byte, error) {
	ranked := g.rank(key)
	if len(ranked) == 0 {
		return nil, 0, nil, nil, fmt.Errorf("no replica attached")
	}
	var lastErr error
	for i, rr := range ranked {
		if i > 0 {
			g.retries.Add(1)
		}
		status, hdr, respBody, err := g.send(ctx, rr.ep, method, uri, contentType, body)
		if err != nil {
			lastErr = err
			rr.ep.errors.Add(1)
			if ctx.Err() != nil {
				// The client gave up; stop burning replicas (and do not
				// mark them down for our caller's impatience).
				return nil, 0, nil, nil, lastErr
			}
			rr.rep.markDown()
			continue
		}
		rr.ep.requests.Add(1)
		return rr.ep, status, hdr, respBody, nil
	}
	return nil, 0, nil, nil, lastErr
}

// errUpstreamTooLarge reports a replica response that exceeded the
// gateway's buffering cap. It surfaces as a transport-class failure —
// the replica is misbehaving, so failover marks it down and moves on —
// rather than proxying an unbounded body through the gateway's memory.
var errUpstreamTooLarge = fmt.Errorf("gateway: upstream response exceeds %d-byte cap", api.MaxBodyBytes)

// send performs one proxied exchange, timed into the endpoint's
// gateway_upstream_seconds. When the endpoint advertised a wire
// listener the exchange rides a persistent binary frame; any wire
// transport failure drops the pool and falls back to HTTP for this and
// subsequent calls until a probe rediscovers it.
func (g *Gateway) send(ctx context.Context, ep *endpoint, method, uri, contentType string, body []byte) (int, http.Header, []byte, error) {
	if wp := ep.wire.Load(); wp != nil {
		status, hdr, data, err := g.sendWire(ctx, ep, wp, method, uri, contentType, body)
		if err == nil {
			return status, hdr, data, nil
		}
		if !errors.Is(err, wire.ErrTransport) {
			return 0, nil, nil, err
		}
		if ctx.Err() != nil {
			// The caller gave up mid-exchange; the wire path is not at
			// fault, so keep the pool.
			return 0, nil, nil, err
		}
		ep.dropWire(wp)
	}
	start := time.Now()
	status, hdr, data, err := g.roundTrip(ctx, method, ep.url+uri, contentType, body)
	ep.upstream.Observe(time.Since(start).Seconds())
	return status, hdr, data, err
}

// roundTrip is the gateway's one HTTP exchange with a replica, on its
// one client, and slurps the response bounded by api.MaxBodyBytes (the
// request-side cap — a replica must not be able to balloon the
// gateway's memory with one response). The request ID the gateway
// middleware attached travels upstream as X-Request-Id — the replica
// adopts it into its own envelope and metrics log line, so one ID
// names the request end to end.
func (g *Gateway) roundTrip(ctx context.Context, method, rawURL, contentType string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rawURL, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if rid := api.RequestID(ctx); rid != "" {
		req.Header.Set("X-Request-Id", rid)
	}
	resp, err := g.httpc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, api.MaxBodyBytes+1))
	if err != nil {
		return 0, nil, nil, err
	}
	if len(data) > api.MaxBodyBytes {
		return 0, nil, nil, errUpstreamTooLarge
	}
	return resp.StatusCode, resp.Header, data, nil
}

// sendWire tunnels one proxied exchange over the endpoint's wire pool
// as a Call/CallResp frame pair. The replica runs the identical HTTP
// handler behind the frame, so semantics (auth, caching, envelopes)
// match the HTTP path exactly; only the transport differs.
func (g *Gateway) sendWire(ctx context.Context, ep *endpoint, wp *wire.Pool, method, uri, contentType string, body []byte) (int, http.Header, []byte, error) {
	call := wire.Call{
		Method:      method,
		URI:         uri,
		ContentType: contentType,
		RequestID:   api.RequestID(ctx),
		Body:        body,
	}
	buf := wire.AppendCall(wire.GetBuf(), &call)
	var status int
	var hdr http.Header
	var data []byte
	start := time.Now()
	err := wp.Do(ctx, wire.TypeCall, buf, func(f wire.Frame) error {
		if f.Type != wire.TypeCallResp {
			return fmt.Errorf("%w: unexpected frame type %d", wire.ErrTransport, f.Type)
		}
		resp, derr := wire.DecodeCallResp(f.Payload)
		if derr != nil {
			return fmt.Errorf("%w: %v", wire.ErrTransport, derr)
		}
		if len(resp.Body) > api.MaxBodyBytes {
			return errUpstreamTooLarge
		}
		status = resp.Status
		hdr = make(http.Header, len(resp.Headers))
		for _, kv := range resp.Headers {
			hdr.Set(kv.Key, kv.Value)
		}
		data = resp.Body
		return nil
	})
	wire.PutBuf(buf)
	ep.upstream.Observe(time.Since(start).Seconds())
	if err != nil {
		return 0, nil, nil, err
	}
	return status, hdr, data, nil
}

// reloadOutcome is the fleet's one rule for a replica's answer to a
// reload.
type reloadOutcome int

const (
	reloadApplied reloadOutcome = iota // 2xx (any status below 400)
	reloadQueued                       // vacant slot, transport error, 5xx or 429: replay later
	reloadInvalid                      // any other 4xx: invalid on every replica
)

// reloadAnswer is one target's answer to a reload.
type reloadAnswer struct {
	ep     *endpoint // nil: vacant slot, nothing dialed
	status int
	hdr    http.Header
	body   []byte
	err    error
}

func (a reloadAnswer) outcome() reloadOutcome {
	switch {
	case a.ep == nil || a.err != nil || a.status >= 500 || a.status == http.StatusTooManyRequests:
		return reloadQueued
	case a.status >= 400:
		return reloadInvalid
	}
	return reloadApplied
}

// reload sends every reload the gateway issues — a client's fan-out, a
// feedback promotion, a pending replay — to each target at once, each
// answer bounded by healthTimeout, and applies the one rule to the
// answers: unless some replica found the reload invalid (deterministic
// catalogs: invalid on one is invalid on all), every target that did
// not apply it, vacant slots included, has it queued for replay, and
// the edge sheds the NF's responses, stale the moment any replica
// reloads. A transport failure marks the replica down unless ctx, the
// caller's, is what gave up. Answers come back in target order.
func (g *Gateway) reload(ctx context.Context, targets []*replica, req reloadReq) []reloadAnswer {
	answers := make([]reloadAnswer, len(targets))
	tctx, cancel := context.WithTimeout(ctx, healthTimeout)
	defer cancel()
	each(targets, func(i int, rep *replica, ep *endpoint) {
		a := &answers[i]
		a.ep = ep
		a.status, a.hdr, a.body, a.err = g.send(tctx, ep, http.MethodPost, req.uri, req.contentType, req.body)
		if a.err != nil {
			ep.errors.Add(1)
			if ctx.Err() == nil {
				rep.markDown()
			}
			return
		}
		ep.requests.Add(1)
		if a.outcome() == reloadApplied {
			ep.fanouts.Add(1)
		}
	})
	if slices.ContainsFunc(answers, func(a reloadAnswer) bool { return a.outcome() == reloadInvalid }) {
		return answers
	}
	for i := range answers {
		if answers[i].outcome() == reloadQueued {
			g.addPending(targets[i], req)
		}
	}
	g.evictEdge(req.nf)
	return answers
}

// fanoutReload forwards a client's mutating reload to every replica —
// healthy or not — so no replica serves a stale model. The response is
// a replica's own 4xx if the reload was invalid, else the first
// success with X-Gateway-Fanout applied/dialed if any replica applied
// it (the rest catch up via the pending queue), else a replica's own
// refusal (a 429 keeps its Retry-After), and a 503 only when nothing
// answered.
func (g *Gateway) fanoutReload(w http.ResponseWriter, r *http.Request, rt route, body []byte) {
	g.fanouts.Add(1)
	answers := g.reload(r.Context(), g.replicas, reloadReq{
		backend: rt.backend, nf: rt.nf,
		uri: r.URL.RequestURI(), contentType: r.Header.Get("Content-Type"), body: body,
	})
	var first [reloadInvalid + 1]*reloadAnswer // first replica answer per outcome
	applied, dialed := 0, 0
	for i := range answers {
		a := &answers[i]
		if a.ep != nil {
			dialed++
		}
		if a.ep == nil || a.err != nil {
			continue // no replica answer to forward
		}
		o := a.outcome()
		if o == reloadApplied {
			applied++
		}
		if first[o] == nil {
			first[o] = a
		}
	}
	res := cmp.Or(first[reloadInvalid], first[reloadApplied], first[reloadQueued])
	if res == nil {
		g.writeProxyError(w, r, fmt.Errorf("reload fan-out reached no replica"))
		return
	}
	if res == first[reloadApplied] {
		w.Header().Set("X-Gateway-Fanout", fmt.Sprintf("%d/%d", applied, dialed))
	}
	api.CopyForwarded(w.Header(), res.hdr)
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// evictEdge drops edge-cached responses a reload of nf could
// invalidate. Edge keys embed the request path and body, so matching
// the NF name anywhere in the key over-approximates (an entry naming
// the NF only as a competitor goes too) but never under-evicts: admits
// name residents only in the body, compares depend on every backend.
// Over-eviction merely costs a re-proxy to a replica whose own eviction
// is exact.
func (g *Gateway) evictEdge(nf string) {
	g.edge.EvictMatching(func(key string) bool {
		return strings.Contains(key, nf)
	})
}

// handleGatewayStats serves the gateway's own operator snapshot
// (GET /v2/gateway/stats), wire-shaped as yalaclient.GatewayStats. Each
// healthy replica is asked for its live cache size so operators can
// watch a reload fan-out land everywhere.
func (g *Gateway) handleGatewayStats(w http.ResponseWriter, r *http.Request) {
	out := yalaclient.GatewayStats{
		Requests:  g.requests.Load(),
		Retries:   g.retries.Load(),
		Fanouts:   g.fanouts.Load(),
		Coalesced: g.coalesced.Load(),
		Canceled:  g.canceled.Load(),
	}
	es := g.edge.Stats()
	out.EdgeHits, out.EdgeMisses, out.EdgeEntries = es.Hits, es.Misses, es.Entries

	entries := make([]int, len(g.replicas))
	eps := each(g.replicas, func(i int, rep *replica, ep *endpoint) {
		entries[i] = -1
		if !rep.healthy.Load() {
			return
		}
		if st, err := g.stats(r.Context(), ep); err == nil {
			entries[i] = st.Cache.Entries
		}
	})
	for i, rep := range g.replicas {
		ep := eps[i]
		if ep == nil {
			continue // vacant slot: nothing an operator can dial
		}
		rep.mu.Lock()
		npending := len(rep.pending)
		rep.mu.Unlock()
		out.Replicas = append(out.Replicas, yalaclient.GatewayReplicaStats{
			URL:            ep.url,
			Slot:           rep.slot,
			Healthy:        rep.healthy.Load(),
			Requests:       ep.requests.Load(),
			Errors:         ep.errors.Load(),
			Fanouts:        ep.fanouts.Load(),
			CacheEntries:   entries[i],
			PendingReloads: npending,
		})
	}
	out.Slots = len(g.replicas)
	if g.cfg.Gate != nil {
		// A conversion, not a field copy: the wire row and the gate's
		// snapshot must keep one shape, and a drifted field fails to build.
		for _, snap := range g.cfg.Gate.Snapshots() {
			out.Tenants = append(out.Tenants, yalaclient.GatewayTenantStats(snap))
		}
	}
	api.WriteJSON(w, http.StatusOK, out)
}

// handleAggregateStats sums /v2/stats across healthy replicas so
// operator tooling (and loadgen's cache-hit-rate snapshot) sees
// fleet-wide counters: request, error and cache counters add, workers
// sum to aggregate capacity, the model list and backend set are unions,
// uptime is the oldest replica's.
func (g *Gateway) handleAggregateStats(w http.ResponseWriter, r *http.Request) {
	fetched := make([]*yalaclient.Stats, len(g.replicas))
	each(g.replicas, func(i int, rep *replica, ep *endpoint) {
		if !rep.healthy.Load() {
			return
		}
		if st, err := g.stats(r.Context(), ep); err == nil {
			fetched[i] = &st
		}
	})

	agg := yalaclient.Stats{Requests: map[string]uint64{}}
	models := map[string]yalaclient.ModelInfo{}
	backends := map[string]bool{}
	answered := 0
	for _, st := range fetched {
		if st == nil {
			continue
		}
		answered++
		// Uptime is the oldest replica's and start time the earliest —
		// never a sum: five replicas up an hour each is still an
		// hour-old fleet.
		if st.UptimeSec > agg.UptimeSec {
			agg.UptimeSec = st.UptimeSec
		}
		if st.UptimeSeconds > agg.UptimeSeconds {
			agg.UptimeSeconds = st.UptimeSeconds
		}
		if st.StartTime != 0 && (agg.StartTime == 0 || st.StartTime < agg.StartTime) {
			agg.StartTime = st.StartTime
		}
		agg.Workers += st.Workers
		for k, v := range st.Requests {
			agg.Requests[k] += v
		}
		agg.Errors += st.Errors
		agg.Cache.Entries += st.Cache.Entries
		agg.Cache.Hits += st.Cache.Hits
		agg.Cache.Misses += st.Cache.Misses
		agg.Cache.Evictions += st.Cache.Evictions
		agg.PersistFailures += st.PersistFailures
		if st.LastPersistErr != "" {
			agg.LastPersistErr = st.LastPersistErr
		}
		if st.Drift != nil {
			if agg.Drift == nil {
				agg.Drift = &yalaclient.DriftStats{}
			}
			agg.Drift.Observations += st.Drift.Observations
			agg.Drift.Quarantined += st.Drift.Quarantined
			agg.Drift.Holds += st.Drift.Holds
			agg.Drift.Trips += st.Drift.Trips
			agg.Drift.Retrains += st.Drift.Retrains
			agg.Drift.TrainFailures += st.Drift.TrainFailures
			agg.Drift.ShadowSamples += st.Drift.ShadowSamples
			agg.Drift.ShadowCompares += st.Drift.ShadowCompares
			agg.Drift.ShadowAborts += st.Drift.ShadowAborts
			agg.Drift.Promotions += st.Drift.Promotions
		}
		for _, b := range st.Backends {
			backends[b] = true
		}
		for _, m := range st.Models {
			key := m.NF + "|" + m.HW + "|" + m.Backend
			if prev, ok := models[key]; ok {
				prev.Loaded = prev.Loaded || m.Loaded
				prev.OnDisk = prev.OnDisk || m.OnDisk
				// The fleet's view of a model is its freshest resolution:
				// after a promotion fan-out, the highest generation is the
				// promoted one.
				if m.Generation > prev.Generation {
					prev.Generation = m.Generation
				}
				if m.TrainedAt > prev.TrainedAt {
					prev.TrainedAt = m.TrainedAt
				}
				models[key] = prev
			} else {
				models[key] = m
			}
		}
	}
	if answered == 0 {
		api.WriteError(w, r, http.StatusServiceUnavailable, api.CodeUnavailable, "no healthy replica answered /v2/stats")
		return
	}
	agg.Backends = slices.Sorted(maps.Keys(backends))
	agg.Models = slices.SortedFunc(maps.Values(models), func(a, b yalaclient.ModelInfo) int {
		return cmp.Or(cmp.Compare(a.NF, b.NF), cmp.Compare(a.HW, b.HW), cmp.Compare(a.Backend, b.Backend))
	})
	api.WriteJSON(w, http.StatusOK, agg)
}

// subBatch is one replica's share of a scattered request: the client
// indices of its elements in order, and the replica's answer.
type subBatch struct {
	key    string // first element's routing key: the sub-batch's failover order
	idxs   []int
	status int
	body   []byte
	err    error
}

// scatter is the shared first half of the two array verbs
// (:batchPredict's "requests", /v2/ingest's "measurements"): read the
// body, split the named array, group the elements by home replica, and
// send every group to uri concurrently. Each element ranks on its own
// (nf, hw, backend) key and joins the sub-batch of the top-ranked
// replica, so every model stays on its cache-hot shard — for ingest,
// the one whose feedback window, shadow candidate and predict cache
// describe that model. It returns the element count and the answered
// sub-batches in first-seen order; ok=false means the client has
// already been answered (unreadable body, no replica, a sub-batch that
// failed everywhere, or a replica's non-200 proxied back with its
// element indices remapped to the client's).
func (g *Gateway) scatter(w http.ResponseWriter, r *http.Request, field, uri string) (n int, subs []*subBatch, ok bool) {
	g.requests.Add(1)
	body, ok := api.ReadBody(w, r)
	if !ok {
		return 0, nil, false
	}
	var params struct {
		Requests     []json.RawMessage `json:"requests"`
		Measurements []json.RawMessage `json:"measurements"`
	}
	if len(bytes.TrimSpace(body)) > 0 {
		if err := json.Unmarshal(body, &params); err != nil {
			api.WriteError(w, r, http.StatusBadRequest, api.CodeInvalidArgument, api.DecodeErrorMessage(body, &params, err))
			return 0, nil, false
		}
	}
	elems := params.Requests
	if field == "measurements" {
		elems = params.Measurements
	}

	byReplica := map[*replica]*subBatch{}
	for i, raw := range elems {
		var e struct {
			Model   string `json:"model"`
			Backend string `json:"backend"`
		}
		// A malformed element or model ID still routes (somewhere); the
		// replica owns validation and its whole-batch 400 proxies back.
		_ = json.Unmarshal(raw, &e)
		nf, hw, _ := api.ParseModelID(e.Model)
		key := modelKey(nf, hw, e.Backend)
		ranked := g.rank(key)
		if len(ranked) == 0 {
			api.WriteError(w, r, http.StatusServiceUnavailable, api.CodeUnavailable, "no replica attached")
			return 0, nil, false
		}
		sub, seen := byReplica[ranked[0].rep]
		if !seen {
			sub = &subBatch{key: key}
			byReplica[ranked[0].rep] = sub
			subs = append(subs, sub)
		}
		sub.idxs = append(sub.idxs, i)
	}

	var wg sync.WaitGroup
	for _, sub := range subs {
		raws := make([]json.RawMessage, len(sub.idxs))
		for j, idx := range sub.idxs {
			raws[j] = elems[idx]
		}
		subBody, err := json.Marshal(map[string]any{field: raws})
		if err != nil {
			api.WriteError(w, r, http.StatusInternalServerError, api.CodeInternal, err.Error())
			return 0, nil, false
		}
		wg.Add(1)
		go func(sub *subBatch) {
			defer wg.Done()
			_, sub.status, _, sub.body, sub.err = g.sendWithFailover(r.Context(), sub.key, http.MethodPost, uri, "application/json", subBody)
		}(sub)
	}
	wg.Wait()

	for _, sub := range subs {
		if sub.err != nil {
			g.writeProxyError(w, r, fmt.Errorf("%s sub-batch failed on every replica: %w", field, sub.err))
			return 0, nil, false
		}
		if sub.status != http.StatusOK {
			// The replica's whole-batch error names sub-batch indices;
			// remap them to the client's before proxying the status.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(sub.status)
			w.Write(remapIndices(sub.body, field+"[", sub.idxs))
			return 0, nil, false
		}
	}
	return len(elems), subs, true
}

// handleBatchScatter scatters a :batchPredict and reassembles the
// responses in request order — one client round trip fans out to every
// shard at once instead of serializing N proxied calls.
func (g *Gateway) handleBatchScatter(w http.ResponseWriter, r *http.Request) {
	n, subs, ok := g.scatter(w, r, "requests", "/v2/models:batchPredict")
	if !ok {
		return
	}
	responses := make([]json.RawMessage, n)
	errs := make([]string, n)
	anyErr := false
	for _, sub := range subs {
		var decoded struct {
			Responses []json.RawMessage `json:"responses"`
			Errors    []string          `json:"errors"`
		}
		if err := json.Unmarshal(sub.body, &decoded); err != nil || len(decoded.Responses) != len(sub.idxs) {
			api.WriteError(w, r, http.StatusBadGateway, api.CodeInternal, "replica returned a malformed sub-batch response")
			return
		}
		for j, idx := range sub.idxs {
			responses[idx] = decoded.Responses[j]
			if j < len(decoded.Errors) && decoded.Errors[j] != "" {
				errs[idx] = decoded.Errors[j]
				anyErr = true
			}
		}
	}
	out := struct {
		Responses []json.RawMessage `json:"responses"`
		Errors    []string          `json:"errors,omitempty"`
	}{Responses: responses}
	if anyErr {
		out.Errors = errs
	}
	api.WriteJSON(w, http.StatusOK, out)
}

// handleIngestScatter scatters a /v2/ingest so feedback accumulates
// where each model serves, and sums the answers: the client sees one
// fleet-wide accept count.
func (g *Gateway) handleIngestScatter(w http.ResponseWriter, r *http.Request) {
	_, subs, ok := g.scatter(w, r, "measurements", "/v2/ingest")
	if !ok {
		return
	}
	var accepted, quarantined int
	for _, sub := range subs {
		var res struct {
			Accepted    int `json:"accepted"`
			Quarantined int `json:"quarantined"`
		}
		if err := json.Unmarshal(sub.body, &res); err != nil {
			api.WriteError(w, r, http.StatusBadGateway, api.CodeInternal, "replica returned a malformed ingest response")
			return
		}
		accepted += res.Accepted
		quarantined += res.Quarantined
	}
	api.WriteJSON(w, http.StatusOK, map[string]int{"accepted": accepted, "quarantined": quarantined})
}

// PromoteReload propagates one replica's feedback-driven model
// promotion to the rest of the fleet: every other replica reloads the
// (backend, nf) pair — dropping its in-memory model so the next
// request re-reads the promoted artifact from the shared model
// directory — and the gateway's edge cache sheds every response the
// retired model computed. It is a reload fan-out like a client's
// :reload, under the same rule: replicas that cannot apply it now
// (vacant slots included) get it queued for replay. exceptURL names
// the promoting replica, which already swapped atomically and must not
// be told to drop the model it just installed.
func (g *Gateway) PromoteReload(backendName, nfName, exceptURL string) {
	if backendName == "" {
		backendName = yalaclient.DefaultBackend
	}
	g.fanouts.Add(1)
	targets := make([]*replica, 0, len(g.replicas))
	for _, rep := range g.replicas {
		if ep := rep.ep.Load(); ep == nil || ep.url != exceptURL {
			targets = append(targets, rep)
		}
	}
	uri := "/v2/models/" + url.PathEscape(nfName) + "/" + url.PathEscape(backendName) + ":reload"
	g.reload(context.Background(), targets, reloadReq{backend: backendName, nf: nfName, uri: uri})
}

// remapIndices rewrites "<marker><i>]" references in a replica's
// whole-batch error from sub-batch positions to the client's original
// element indices, so "requests[0]" in a 2-element sub-batch can
// surface as "requests[7]" of the client's 10-element batch.
func remapIndices(body []byte, marker string, idxs []int) []byte {
	s := string(body)
	i := strings.Index(s, marker)
	if i < 0 {
		return body
	}
	j := i + len(marker)
	k := j
	for k < len(s) && s[k] >= '0' && s[k] <= '9' {
		k++
	}
	if k == j || k >= len(s) || s[k] != ']' {
		return body
	}
	sub, err := strconv.Atoi(s[j:k])
	if err != nil || sub < 0 || sub >= len(idxs) {
		return body
	}
	return []byte(s[:j] + strconv.Itoa(idxs[sub]) + s[k:])
}
