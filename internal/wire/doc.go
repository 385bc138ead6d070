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
// # Same-host upgrade
//
// A TypeHelloAck payload is empty, or one uvarint-length string: the name
// of a Unix stream socket in Linux's abstract namespace ("@" first, at
// most 108 bytes) on which the same server speaks the same protocol. A
// server listening on TCP on Linux at a loopback or unspecified address
// opens one under a random name (crypto/rand), which creates no file,
// and offers it only to a peer whose TCP remote address is loopback; a
// remote peer, a peer already on the socket and every peer on another
// platform get an empty payload. Clients that predate the offer ignore
// the payload and stay on TCP.
//
// Pool follows an offer only from a loopback server, and only the offer
// it has just received: every new connection completes its TCP
// handshake first, then dials the offered socket, repeats Hello with the
// same API key, and on success closes the TCP connection. A name is
// never dialed from memory: an abstract name has no permissions, and the
// one an exited server released can be bound by any local process,
// whereas the live server that just offered its name still holds it. A
// failed upgrade keeps the TCP connection, and the pool does not try
// that name again unless the failure was the caller's ctx ending or a
// full listen backlog (EAGAIN); a restarted server offers a new name.
// The frame layout, the API key and the tenant gate are the same on both
// transports, and wire_addr in /v2/stats stays the TCP address.
//
// # Payload types
//
// This package also holds the one Go definition of the /v2 model
// methods' request and response bodies (payload.go): predict, batch,
// compare, admit, diagnose, ingest and the model listing. The JSON front
// door in internal/serve and the SDK in pkg/yalaclient name them through
// type aliases (the SDK may import no other internal package), and the
// typed frames encode the same PredictRequest and PredictResponse, so a
// field added here reaches the server, the SDK and the codec together. A
// response's PerResource rows are the frame form of its PerResourcePPS
// map, sorted by resource; JSON carries only the map. The request
// decoders take a name-interning callback, so a server turns the names
// it knows into its own strings without copying them.
//
// Payload encodings are hand-rolled append-style encoders over pooled
// buffers (GetBuf/PutBuf): uvarint-length strings, zigzag varints for
// ints, fixed 8-byte big-endian floats. Decoders never panic on
// malformed input and, before allocating, check a collection's count
// against the remaining bytes at each element's minimal encoded size.
//
// # Frame types
//
//   - TypeEcho/TypeEchoAck — payload reflection, bypassing serving
//     entirely; loadgen's -wirefloor mode uses it to measure the pure
//     transport floor (framing + syscalls) on whichever transport the
//     pool ends up on: the same-host socket against a loopback server.
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
