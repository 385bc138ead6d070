// Package api is the one home of the /v2 contract: the things every
// tier that speaks /v2 — a serve replica, the gateway in front of it,
// the tenant gate mounted on either — must agree on byte for byte. It
// is a leaf (it imports only internal/obs, for the request trace), so
// tenant, serve and gateway all write through it and none re-declares
// any of it. This comment is the normative statement of the contract;
// README and the other packages' docs point here.
//
// # Routes
//
// The API is resource-oriented: models are resources named "<nf>[@<hw>]"
// (hw = a fleet hardware class; absent = the server's default NIC),
// predictions are custom methods on a model's backend, and cluster runs
// are a collection:
//
//	GET  /v2/models?page_size=&page_token=       → paginated model list
//	POST /v2/models:batchPredict                 → batch predict across models
//	POST /v2/models/{model}/{backend}:predict    → PredictResponse
//	POST /v2/models/{model}/{backend}:admit      → AdmitResponse
//	POST /v2/models/{model}/{backend}:reload     → {"ok": true}
//	POST /v2/models/{model}:compare              → CompareResponse
//	POST /v2/models/{model}:diagnose             → DiagnoseResponse
//	POST /v2/ingest                              → IngestResult (online feedback)
//	POST /v2/cluster/runs                        → cluster.Comparison
//	GET  /v2/cluster/policies                    → ClusterPoliciesResponse
//	GET  /v2/stats                               → ServiceStats
//
// ParseRoute is the grammar of the two model-method shapes and
// ParseModelID that of a model name; a replica dispatches on the parsed
// Route (ParseRouteSegments, over the segments its mux matched) and the
// gateway hashes on it, so the tiers cannot disagree about which model
// a path names.
//
// # Errors
//
// Every error — unknown routes, wrong methods, tenant-gate refusals and
// gateway-originated failures included — is the envelope WriteError
// emits, {"error": {code, message, request_id}}, with a machine-readable
// Code* constant. Status 499 (StatusClientClosedRequest) answers a
// request whose own client went away. A 429 carries Retry-After in
// whole seconds (SetRetryAfter). A body that does not decode answers
// 400 invalid_argument with DecodeErrorMessage's text, in JSON's terms
// only: the path of the offending value and the kinds found and
// expected ("requests[0].model: got number, want string"), an unknown
// field's path, or where malformed JSON broke off. The gateway's batch
// split and a replica's decoder word the same failure the same way.
//
// # Request IDs
//
// Every response echoes X-Request-Id. A client-sent ID is adopted when
// AdoptRequestID accepts it (trimmed, non-empty, at most 64 bytes);
// otherwise the receiving tier mints one ("req-", "wire-" or "gw-" plus
// a counter). The ID rides the obs trace in the request context —
// RequestID reads it back — and the gateway forwards it upstream, so one
// ID names a request at the client, the gateway and the replica.
//
// # Hops
//
// Request bodies are capped at MaxBodyBytes (ReadBody); the gateway
// holds replica responses to the same cap. Of a replica's response
// headers exactly ForwardedHeaders cross a hop, over HTTP and inside a
// wire TypeCallResp alike.
package api
