// Package gateway is the scale-out front end for the prediction-serving
// subsystem: a thin coordinator that routes /v2 traffic across N
// interchangeable serve replicas and survives replica failure — the
// cluster-head shape the related clustered-systems work converges on,
// applied to the serving tier itself.
//
// Routing is rendezvous hashing on (NF, hardware class, backend), so
// every scenario for one model keeps landing on the same replica and
// that replica's LRU stays hot for its key range; when a replica is
// marked down — by the active health loop (pkg/yalaclient probes) or
// passively by a transport failure mid-proxy — the same ranking yields
// the next-best replica, which is exactly consistent-hashing failover:
// only the dead replica's key range moves. Every proxied verb is
// idempotent (predictions are deterministic), so a transport failure
// retries transparently on the next replica in rank order and clients
// see zero errors across a replica kill.
//
// The mutating custom method (:reload) fans out to every replica so no
// replica serves a stale model; a replica that misses a fan-out while
// down has the reload queued and replayed by the health loop when it
// recovers, so it never rejoins stale. :batchPredict
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
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
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
	// Slots sizes the hash ring: len(Backends) (the default) for a
	// static fleet, larger to leave vacant slots an autoscaler can
	// Attach replicas into later. Keys hash against slot indices, so a
	// ring sized for the maximum fleet keeps key→slot assignment stable
	// as replicas come and go.
	Slots int
	// Gate, when set, mounts the multi-tenant admission gate on the
	// gateway surface: API-key auth, per-tenant rate limits, and load
	// shedding before any fan-out (see internal/tenant).
	Gate *tenant.Gate
	// HealthInterval is the active probe period (default 500ms);
	// HealthTimeout bounds one probe or pending-reload replay (default
	// 2s).
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	// EdgeCacheEntries sizes the gateway's response cache: 0 selects the
	// default 8192, negative disables edge caching entirely.
	EdgeCacheEntries int
	// AccessLog emits one log line per gateway request (request ID,
	// method, path, status, latency).
	AccessLog bool
}

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 2 * time.Second
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

	// pending holds reload fan-outs this slot missed while its backend
	// was down or the slot vacant, keyed "backend|nf"; the health loop
	// (or the next Attach) replays them so a rejoining replica never
	// serves a stale model. The seq guards replay-vs-new-failure races:
	// a drain only clears the entry it actually replayed.
	mu      sync.Mutex
	pending map[string]pendingReload
}

type pendingReload struct {
	backend, nf string
	seq         uint64
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
	flight serve.FlightGroup[string, proxyResult]

	obs        *obs.Registry
	reqSeconds *obs.Histogram

	// reloadGen counts edge-cache invalidations. A proxied miss records
	// the generation before its replica round trip and re-checks it
	// around the Put: without that, a response computed against the
	// pre-reload model could be inserted just after a concurrent
	// fan-out's eviction swept the cache, and would then serve stale
	// forever.
	reloadGen atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New starts a gateway over the configured replicas and its health
// loop. Replicas start optimistically healthy — the first probe (or the
// first failed proxy) corrects that — so a gateway booted before its
// replicas converges instead of blackholing. Call Close to stop.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: need at least one replica backend URL")
	}
	if cfg.Slots < len(cfg.Backends) {
		cfg.Slots = len(cfg.Backends)
	}
	// The forwarding client keeps a deep idle-connection pool per
	// replica, like the SDK's.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 256
	g := &Gateway{
		cfg:   cfg,
		httpc: &http.Client{Transport: tr},
		edge:  serve.NewCache(cfg.EdgeCacheEntries),
		stop:  make(chan struct{}),
	}
	eps := make([]*endpoint, len(cfg.Backends))
	for i, u := range cfg.Backends {
		// A phantom empty-URL replica would boot optimistically healthy
		// and then fail every send and probe forever — reject the typo
		// (e.g. a trailing comma) at construction.
		ep, err := newEndpoint(u)
		if err != nil {
			return nil, fmt.Errorf("gateway: backend %d: %w", i, err)
		}
		eps[i] = ep
	}
	for slot := 0; slot < cfg.Slots; slot++ {
		rep := &replica{slot: slot, pending: map[string]pendingReload{}}
		if slot < len(eps) {
			rep.ep.Store(eps[slot])
			rep.healthy.Store(true)
		}
		g.replicas = append(g.replicas, rep)
	}
	g.initObs()
	for _, rep := range g.replicas {
		if ep := rep.ep.Load(); ep != nil {
			g.registerEndpointObs(rep, ep)
		}
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
	var wg sync.WaitGroup
	for _, rep := range g.replicas {
		ep := rep.ep.Load()
		if ep == nil {
			continue // vacant slot: nothing to probe
		}
		wg.Add(1)
		go func(rep *replica, ep *endpoint) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), g.cfg.HealthTimeout)
			defer cancel()
			if err := ep.client.Health(ctx); err != nil {
				rep.healthy.Store(false)
				return
			}
			g.drainPending(rep)
			g.discoverWire(ctx, ep)
			rep.healthy.Store(true)
		}(rep, ep)
	}
	wg.Wait()
}

// discoverWire asks a healthy replica (once per attachment, re-armed
// by dropWire) whether it advertises a yalawire listener, and builds
// the binary upstream pool when it does. A replica without one simply
// stays on HTTP; a failed stats probe re-arms so a later probe
// retries.
func (g *Gateway) discoverWire(ctx context.Context, ep *endpoint) {
	if ep.wireProbed.Swap(true) {
		return
	}
	st, err := ep.client.Stats(ctx)
	if err != nil {
		ep.wireProbed.Store(false)
		return
	}
	if st.WireAddr == "" {
		return
	}
	ep.wire.Store(wire.NewPool(st.WireAddr, "", 8))
}

// drainPending replays the reload fan-outs a replica missed while down.
// Server-side reloads are idempotent (drop model, evict entries), so a
// duplicate replay is harmless; an entry clears on success or on a 4xx
// (the reload was invalid everywhere — nothing to catch up on).
func (g *Gateway) drainPending(rep *replica) {
	ep := rep.ep.Load()
	if ep == nil {
		return
	}
	rep.mu.Lock()
	missed := make([]pendingReload, 0, len(rep.pending))
	for _, p := range rep.pending {
		missed = append(missed, p)
	}
	rep.mu.Unlock()
	for _, p := range missed {
		ctx, cancel := context.WithTimeout(context.Background(), g.cfg.HealthTimeout)
		err := ep.client.Reload(ctx, yalaclient.ModelID{NF: p.nf}, p.backend)
		cancel()
		var apiErr *yalaclient.APIError
		if err == nil || (errors.As(err, &apiErr) && apiErr.StatusCode < 500) {
			key := p.backend + "|" + p.nf
			rep.mu.Lock()
			if cur, ok := rep.pending[key]; ok && cur.seq == p.seq {
				delete(rep.pending, key)
			}
			rep.mu.Unlock()
		}
	}
}

func (g *Gateway) addPending(rep *replica, backendName, nfName string) {
	rep.mu.Lock()
	rep.pending[backendName+"|"+nfName] = pendingReload{
		backend: backendName,
		nf:      nfName,
		seq:     g.pendingSeq.Add(1),
	}
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
	gen := g.reloadGen.Load()
	ep, status, hdr, respBody, err := g.sendWithFailover(ctx, rt.key, r.Method, r.URL.RequestURI(), r.Header.Get("Content-Type"), body)
	if err != nil {
		return proxyResult{}, err
	}
	if status == http.StatusOK && len(respBody) <= maxEdgeEntryBytes {
		g.edge.Put(ekey, edgeEntry{contentType: hdr.Get("Content-Type"), body: respBody})
		// A reload fan-out may have swept the cache while this response
		// was in flight — the response could predate the reload. The
		// eviction bumps reloadGen before scanning, so either the sweep
		// saw this entry, or the generation moved and the entry removes
		// itself here. Over-removal only costs a re-proxy.
		if g.reloadGen.Load() != gen {
			g.edge.EvictMatching(func(k string) bool { return k == ekey })
		}
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
			rr.rep.healthy.Store(false)
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

// send performs one proxied exchange and slurps the response, bounded
// by api.MaxBodyBytes (the request-side cap — a replica must not be
// able to balloon the gateway's memory with one response). When the
// endpoint advertised a wire listener the exchange rides a persistent
// binary frame; any wire transport failure drops the pool and falls
// back to HTTP for this and subsequent calls until a probe
// rediscovers it. The request ID the gateway middleware attached
// travels upstream as X-Request-Id — the replica adopts it into its
// own envelope and metrics log line, so one ID names the request end
// to end.
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
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, ep.url+uri, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if rid := api.RequestID(ctx); rid != "" {
		req.Header.Set("X-Request-Id", rid)
	}
	start := time.Now()
	resp, err := g.httpc.Do(req)
	if ep.upstream != nil {
		ep.upstream.Observe(time.Since(start).Seconds())
	}
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
	if ep.upstream != nil {
		ep.upstream.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		return 0, nil, nil, err
	}
	return status, hdr, data, nil
}

// fanoutReload forwards a mutating reload to every replica — healthy or
// not — so no replica serves a stale model. Replicas that fail the
// fan-out (transport error or 5xx) get the reload queued for replay on
// recovery. The response is the first success if any replica applied it
// (stragglers catch up via the pending queue), a replica's own 4xx if
// the reload was invalid (deterministic catalogs: invalid on one is
// invalid on all), and a 503 only when nothing answered.
func (g *Gateway) fanoutReload(w http.ResponseWriter, r *http.Request, rt route, body []byte) {
	backendName, nfName := rt.backend, rt.nf
	if backendName == "" {
		backendName = yalaclient.DefaultBackend
	}
	g.fanouts.Add(1)

	type result struct {
		rep    *replica
		ep     *endpoint // nil: slot was vacant, nothing dialed
		status int
		hdr    http.Header
		body   []byte
		err    error
	}
	results := make([]result, len(g.replicas))
	dialed := 0
	var wg sync.WaitGroup
	for i, rep := range g.replicas {
		ep := rep.ep.Load()
		results[i] = result{rep: rep, ep: ep}
		if ep == nil {
			// Vacant slot: a future occupant catches up via the pending
			// queue the post-processing below fills.
			continue
		}
		dialed++
		wg.Add(1)
		go func(i int, rep *replica, ep *endpoint) {
			defer wg.Done()
			status, hdr, respBody, err := g.send(r.Context(), ep, r.Method, r.URL.RequestURI(), r.Header.Get("Content-Type"), body)
			results[i] = result{rep, ep, status, hdr, respBody, err}
			if err == nil {
				ep.requests.Add(1)
				if status < 400 {
					ep.fanouts.Add(1)
				}
			}
		}(i, rep, ep)
	}
	wg.Wait()

	var success, clientErr *result
	applied := 0
	for i := range results {
		res := &results[i]
		switch {
		case res.ep != nil && res.err == nil && res.status < 400:
			applied++
			if success == nil {
				success = res
			}
		case res.ep != nil && res.err == nil && res.status < 500:
			if clientErr == nil {
				clientErr = res
			}
		}
	}
	// Queue catch-up reloads for replicas that missed an applied (or
	// ambiguously applied) fan-out — including vacant slots, whose next
	// occupant must not serve the pre-reload model; a pure client error
	// applied nowhere and needs no catch-up.
	if clientErr == nil && nfName != "" {
		for i := range results {
			res := &results[i]
			if res.ep == nil || res.err != nil || res.status >= 500 {
				if res.ep != nil && res.err != nil && r.Context().Err() == nil {
					res.rep.healthy.Store(false)
					res.ep.errors.Add(1)
				}
				g.addPending(res.rep, backendName, nfName)
			}
		}
		// Pre-reload responses memoized at the edge are stale the moment
		// any replica reloads.
		g.evictEdge(nfName)
	}

	switch {
	case clientErr != nil:
		api.CopyForwarded(w.Header(), clientErr.hdr)
		w.WriteHeader(clientErr.status)
		w.Write(clientErr.body)
	case applied > 0:
		api.CopyForwarded(w.Header(), success.hdr)
		w.Header().Set("X-Gateway-Fanout", fmt.Sprintf("%d/%d", applied, dialed))
		w.WriteHeader(success.status)
		w.Write(success.body)
	default:
		g.writeProxyError(w, r, fmt.Errorf("reload fan-out reached no replica"))
	}
}

// evictEdge drops edge-cached responses a reload of nf could
// invalidate. Edge keys embed the request path and body, so matching
// the NF name anywhere in the key over-approximates (an entry naming
// the NF only as a competitor goes too) but never under-evicts: admits
// name residents only in the body, compares depend on every backend.
// Over-eviction merely costs a re-proxy to a replica whose own eviction
// is exact.
func (g *Gateway) evictEdge(nf string) {
	// Bump the generation before sweeping: in-flight misses re-check it
	// around their Put (handleProxy), so a stale response can never be
	// inserted behind the sweep and survive.
	g.reloadGen.Add(1)
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

	eps := make([]*endpoint, len(g.replicas))
	entries := make([]int, len(g.replicas))
	var wg sync.WaitGroup
	for i, rep := range g.replicas {
		entries[i] = -1
		eps[i] = rep.ep.Load()
		if eps[i] == nil || !rep.healthy.Load() {
			continue
		}
		wg.Add(1)
		go func(i int, ep *endpoint) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), g.cfg.HealthTimeout)
			defer cancel()
			if st, err := ep.client.Stats(ctx); err == nil {
				entries[i] = st.Cache.Entries
			}
		}(i, eps[i])
	}
	wg.Wait()
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
		for _, snap := range g.cfg.Gate.Snapshots() {
			out.Tenants = append(out.Tenants, yalaclient.GatewayTenantStats{
				Tenant:      snap.Tenant,
				Limited:     snap.Limited,
				Requests:    snap.Requests,
				Interactive: snap.Interactive,
				Bulk:        snap.Bulk,
				Shed:        snap.Shed,
				RateLimited: snap.RateLimited,
				Overloaded:  snap.Overloaded,
				Errors:      snap.Errors,
			})
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
	type fetched struct {
		st  yalaclient.Stats
		err error
	}
	results := make([]fetched, len(g.replicas))
	var wg sync.WaitGroup
	for i, rep := range g.replicas {
		results[i].err = fmt.Errorf("unhealthy")
		ep := rep.ep.Load()
		if ep == nil || !rep.healthy.Load() {
			continue
		}
		wg.Add(1)
		go func(i int, ep *endpoint) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), g.cfg.HealthTimeout)
			defer cancel()
			results[i].st, results[i].err = ep.client.Stats(ctx)
		}(i, ep)
	}
	wg.Wait()

	agg := yalaclient.Stats{Requests: map[string]uint64{}}
	models := map[string]yalaclient.ModelInfo{}
	backends := map[string]bool{}
	answered := 0
	for _, res := range results {
		if res.err != nil {
			continue
		}
		answered++
		st := res.st
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
	for b := range backends {
		agg.Backends = append(agg.Backends, b)
	}
	sort.Strings(agg.Backends)
	for _, m := range models {
		agg.Models = append(agg.Models, m)
	}
	sort.Slice(agg.Models, func(i, j int) bool {
		a, b := agg.Models[i], agg.Models[j]
		if a.NF != b.NF {
			return a.NF < b.NF
		}
		if a.HW != b.HW {
			return a.HW < b.HW
		}
		return a.Backend < b.Backend
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
			api.WriteError(w, r, http.StatusBadRequest, api.CodeInvalidArgument, "decoding request body: "+err.Error())
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
// retired model computed. Replicas that cannot be reached get the
// reload queued for replay on recovery, exactly like a client-driven
// :reload fan-out. exceptURL names the promoting replica, which
// already swapped atomically and must not be told to drop the model it
// just installed.
func (g *Gateway) PromoteReload(backendName, nfName, exceptURL string) {
	if backendName == "" {
		backendName = yalaclient.DefaultBackend
	}
	g.fanouts.Add(1)
	var wg sync.WaitGroup
	for _, rep := range g.replicas {
		ep := rep.ep.Load()
		if ep == nil {
			// A vacant slot's next occupant must not serve the retired
			// model.
			g.addPending(rep, backendName, nfName)
			continue
		}
		if ep.url == exceptURL {
			continue
		}
		wg.Add(1)
		go func(rep *replica, ep *endpoint) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), g.cfg.HealthTimeout)
			defer cancel()
			err := ep.client.Reload(ctx, yalaclient.ModelID{NF: nfName}, backendName)
			var apiErr *yalaclient.APIError
			if err != nil && !(errors.As(err, &apiErr) && apiErr.StatusCode < 500) {
				ep.errors.Add(1)
				g.addPending(rep, backendName, nfName)
				return
			}
			ep.requests.Add(1)
			ep.fanouts.Add(1)
		}(rep, ep)
	}
	wg.Wait()
	g.evictEdge(nfName)
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
