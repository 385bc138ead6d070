// Package yalaclient is the supported Go SDK for the yala prediction
// service's versioned /v2 HTTP API.
//
// A Client is constructed from a base URL plus functional options:
//
//	client := yalaclient.New("http://localhost:8844",
//		yalaclient.WithTimeout(5*time.Second),
//		yalaclient.WithRetries(2),
//	)
//
// Models are addressed by ModelID — an NF name, optionally qualified by
// a fleet hardware class ({NF: "FlowStats", HW: "pensando"} →
// "FlowStats@pensando") — and every prediction call names the backend
// that should answer ("" selects the default, "yala"). The surface maps
// one-to-one onto /v2:
//
//	Predict, PredictBatch   → :predict, /v2/models:batchPredict
//	Compare, Diagnose       → :compare, :diagnose
//	Admit                   → :admit
//	Reload                  → :reload
//	ListModels, AllModels   → GET /v2/models (paginated)
//	ClusterRun, ClusterPolicies → /v2/cluster/runs, /v2/cluster/policies
//	Stats, Health           → /v2/stats, /healthz
//
// Server-side failures surface as *APIError carrying the structured
// envelope's machine-readable code, message and request ID:
//
//	_, err := client.Predict(ctx, yalaclient.ModelID{NF: "NoSuchNF"}, "", params)
//	var apiErr *yalaclient.APIError
//	if errors.As(err, &apiErr) && apiErr.Code == "invalid_argument" { ... }
//
// # Wire transport
//
// WithWire(addr) routes Predict and PredictBatch over the server's
// yalawire binary listener (internal/wire) instead of HTTP — same
// results, same typed errors, no JSON or HTTP parsing on the hot path:
//
//	client := yalaclient.New("http://localhost:8844",
//		yalaclient.WithWire("localhost:8845"))
//	defer client.Close() // releases pooled wire connections
//
// The wire path is an additive fast lane, never a second contract: a
// transport failure falls back to HTTP transparently and parks the
// wire path for a grace window so a dead listener costs one failed
// dial, not one per request; WireActive reports whether the next call
// will attempt it. Caller cancellation surfaces as ctx.Err() and never
// parks the path. Every other method always rides HTTP.
//
// # Safety bounds
//
// Response bodies are read through a hard 10 MiB cap on both
// transports; anything larger fails with ErrResponseTooLarge instead
// of buffering without bound (mirroring the server's own request-body
// cap). Retry sleeps honor the server's Retry-After hint but are
// clamped to an internal ceiling (maxRetryAfterWait, 10s) so a
// misconfigured server cannot pin a retrying client indefinitely; the
// caller's context deadline always wins over any backoff schedule.
//
// # Payload types
//
// The request and response types (ProfileSpec, PredictParams,
// PredictResult, BatchItem, ModelInfo, …) are aliases of the server's
// own /v2 payload definitions in internal/wire, so a field the server
// sends is a field here, with no copy to keep in step. A PredictResult
// also has PerResource, the sorted frame form of PerResourcePPS; it is
// nil in every answer a Client returns, on either transport.
//
// The package depends on the standard library and on internal/wire
// alone (the frame codec and the payloads it carries), so external
// tools can vendor it without pulling in the simulator tree. See
// Example (package example) for an end-to-end walkthrough against an
// in-process server.
package yalaclient
