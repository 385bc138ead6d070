// Package tenant is the multi-tenant control plane between the serving
// edge and the fleet: API-key authentication, per-tenant token-bucket
// rate limits, priority classes, SLO accounting, and a load-shedding
// admission gate. "Millions of users" means the gateway must defend
// itself — without a notion of a tenant, any single client can flood
// the front end and starve everyone else.
//
// A Registry maps API keys to tenants. It loads from a JSON file (the
// `-tenants` flag on `yala serve` and `yala gateway`) or defaults to a
// single anonymous tenant, so an unconfigured server behaves exactly as
// before. Each tenant carries up to two token buckets — one for the
// interactive class (:predict, :admit, :compare, :diagnose), optionally
// a separate one for the bulk class (:batchPredict, cluster runs) —
// refilled from the monotonic clock on each Allow call, with no
// background goroutines to leak.
//
// A Gate makes the admission decision for one request: resolve the
// tenant from the Authorization: Bearer / X-API-Key header, charge the
// class's bucket, and — under combined load pressure, not a single
// threshold — shed work. Pressure is the maximum of three normalized
// signals: queue occupancy reported by the embedding layer, the
// windowed p99 latency against the gate's SLO, and the windowed server
// error rate (the dDCA diagnostics exemplar: decisions from combined
// signals separate real overload from noise on any one metric). Bulk
// traffic sheds first (score ≥ 0.75), interactive only near saturation
// (score ≥ 0.95).
//
// A shed request is answered with the /v2 structured error envelope
// (code "resource_exhausted"; the envelope is specified, and written,
// in internal/api) plus a Retry-After header derived from the bucket's
// refill time, so well-behaved clients (pkg/yalaclient) back off
// precisely instead of hammering. Clients that hammer anyway are
// tarpitted: rate-limited refusals stall 10ms before the 429 is
// written, so an unpaced keep-alive abuser is bounded to ~100 attempts
// per second per connection instead of consuming the server's CPU at
// line rate. The latency/error window behind the pressure signals ages
// out after 10s — only admitted requests are observed, so without the
// age-out a spike that drives the gate to shed everything would latch
// it shut forever. Every decision is accounted per tenant: request/shed
// counters and latency histograms surface as yala_tenant_* metric
// series and as per-tenant rows in /v2/gateway/stats.
//
// Both the scale-out gateway and a bare serve replica mount the same
// middleware, and a replica's yalawire listener admits through the same
// Gate.Enter / Admission.Done pair the middleware is built on, so the
// QoS contract holds whether a tenant talks to the edge or to a replica
// directly, over JSON or over frames.
package tenant
