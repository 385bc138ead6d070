// Package wire implements yalawire, the persistent-connection,
// length-prefixed binary protocol for the predict hot path.
//
// The gateway benchmark (`go run ./bench -workload gateway-mix`:
// yalaclient.http_predict_rtt_us beside floor.http_rtt_us) shows the
// warm predict path pinned to the box's raw HTTP/1+JSON round-trip
// floor: serving cost is not the bottleneck there, transport is. yalawire removes the per-request HTTP
// parse and JSON encode/decode while keeping /v2 JSON as the
// compatible front door — the wire listener is an additive fast lane,
// never a replacement.
//
// # Frame layout
//
// Every frame is a fixed 16-byte header followed by a payload:
//
//	offset  size  field
//	0       2     magic "YW"
//	2       1     protocol version (currently 1)
//	3       1     frame type
//	4       4     payload length, uint32 big-endian (≤ 10 MiB)
//	8       8     request id, uint64 big-endian
//	16      n     payload
//
// The version byte travels in every header, so a server can answer an
// unknown version with a TypeError frame instead of misparsing, and
// clients fall back to HTTP — JSON stays the cross-version contract.
//
// A connection opens with TypeHello (payload: the client's API key,
// possibly empty) answered by TypeHelloAck; after that, requests are
// strictly serial per connection — a client pool (Pool) holds several
// connections for concurrency instead of multiplexing one.
//
// Payload encodings are hand-rolled append-style encoders over pooled
// buffers (GetBuf/PutBuf): uvarint-length strings, zigzag varints for
// ints, fixed 8-byte big-endian floats. Decoders never panic on
// malformed input and validate collection counts against the actual
// remaining bytes before allocating.
//
// # Frame types
//
//   - TypeEcho/TypeEchoAck — payload reflection, bypassing serving
//     entirely; loadgen's -wirefloor mode uses it to measure the pure
//     transport floor (framing + syscalls).
//   - TypePredict/TypePredictResp, TypeBatch/TypeBatchResp — the typed
//     hot path: binary predict and batch-predict, no JSON anywhere.
//   - TypeCall/TypeCallResp — a generic HTTP-shaped tunnel (method,
//     URI, raw body) for everything else; the gateway uses it to reach
//     wire upstreams without re-encoding bodies, and the server
//     dispatches it through its real HTTP handler so middleware
//     semantics (tenant gate, request IDs, caching) are identical.
//   - TypeError — failures carry the same status/code/message triple
//     as the /v2 JSON error envelope, so typed client errors
//     (*yalaclient.APIError, *yalaclient.RateLimitError) are
//     transport-independent.
//
// Both sides cap payloads at MaxPayload (10 MiB), mirroring the HTTP
// layer's request-body and response-read caps. A reader allocates a
// declared length only up to 64 KiB; a longer payload grows its buffer
// as its bytes arrive, so a header alone cannot make a peer allocate the
// cap, and a buffer above 1 MiB is not kept once its frame is done.
package wire
