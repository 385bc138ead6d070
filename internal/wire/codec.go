package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Profile is a traffic profile on the wire. Flows/PktSize zero means
// "server default", matching the JSON ProfileSpec's omitempty
// semantics; MTBR stays a pointer because 0 matches/MB must remain
// distinguishable from "not specified".
type Profile struct {
	Flows   int
	PktSize int
	MTBR    *float64
}

// Competitor is one co-located NF and its profile.
type Competitor struct {
	Name    string
	Profile Profile
}

// PredictRequest is the typed predict hot-path request: the same
// (model, backend, scenario) tuple POST /v2/models/{nf}/{backend}:predict
// carries, without the JSON.
type PredictRequest struct {
	NF          string
	HW          string
	Backend     string
	Profile     Profile
	Competitors []Competitor
}

// ResourcePPS is one per-resource throughput attribution row; the
// slice form keeps encoding deterministic where the JSON shape uses a
// map.
type ResourcePPS struct {
	Resource string
	PPS      float64
}

// PredictResponse mirrors the /v2 predict response body.
type PredictResponse struct {
	NF           string
	HW           string
	Backend      string
	Profile      Profile
	SoloPPS      float64
	PredictedPPS float64
	Bottleneck   string
	PerResource  []ResourcePPS
}

// BatchRequest is the typed :batchPredict payload.
type BatchRequest struct {
	Requests []PredictRequest
}

// BatchResponse returns one response per request in order; a failed
// element has a zero response and its message at the same index in
// Errors (all-empty Errors is encoded as absent, like the JSON shape).
type BatchResponse struct {
	Responses []PredictResponse
	Errors    []string
}

// ErrorFrame carries a request failure with the same status/code/
// message triple the /v2 JSON error envelope uses, so wire clients
// surface identical typed errors. RetryAfterSec > 0 maps to the
// Retry-After header on 429s.
type ErrorFrame struct {
	Status        int
	Code          string
	Message       string
	RequestID     string
	RetryAfterSec float64
}

// Call tunnels one HTTP-shaped request over the wire: the gateway's
// generic upstream path for verbs without a typed frame. Body is raw
// request bytes, forwarded without re-encoding.
type Call struct {
	Method      string
	URI         string
	ContentType string
	RequestID   string
	Body        []byte
}

// CallResp is a Call's answer: status, the response headers that cross
// a hop (api.ForwardedHeaders), and the raw body.
type CallResp struct {
	Status  int
	Headers []HeaderKV
	Body    []byte
}

// HeaderKV is one forwarded response header.
type HeaderKV struct {
	Key   string
	Value string
}

// --- append-style encoders -------------------------------------------
//
// All encoders append to buf (use GetBuf for a pooled one) and return
// the grown slice; the hot path allocates nothing beyond the payload
// itself.

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func appendF64(buf []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
}

func appendProfile(buf []byte, p Profile) []byte {
	buf = binary.AppendVarint(buf, int64(p.Flows))
	buf = binary.AppendVarint(buf, int64(p.PktSize))
	if p.MTBR != nil {
		buf = append(buf, 1)
		buf = appendF64(buf, *p.MTBR)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

func appendPredictRequest(buf []byte, r *PredictRequest) []byte {
	buf = appendStr(buf, r.NF)
	buf = appendStr(buf, r.HW)
	buf = appendStr(buf, r.Backend)
	buf = appendProfile(buf, r.Profile)
	buf = binary.AppendUvarint(buf, uint64(len(r.Competitors)))
	for i := range r.Competitors {
		buf = appendStr(buf, r.Competitors[i].Name)
		buf = appendProfile(buf, r.Competitors[i].Profile)
	}
	return buf
}

// AppendHello encodes a Hello payload: the client's API key.
func AppendHello(buf []byte, apiKey string) []byte { return appendStr(buf, apiKey) }

// AppendPredictRequest encodes a predict request payload.
func AppendPredictRequest(buf []byte, r *PredictRequest) []byte {
	return appendPredictRequest(buf, r)
}

// AppendPredictResponse encodes a predict response payload.
func AppendPredictResponse(buf []byte, r *PredictResponse) []byte {
	buf = appendStr(buf, r.NF)
	buf = appendStr(buf, r.HW)
	buf = appendStr(buf, r.Backend)
	buf = appendProfile(buf, r.Profile)
	buf = appendF64(buf, r.SoloPPS)
	buf = appendF64(buf, r.PredictedPPS)
	buf = appendStr(buf, r.Bottleneck)
	buf = binary.AppendUvarint(buf, uint64(len(r.PerResource)))
	for i := range r.PerResource {
		buf = appendStr(buf, r.PerResource[i].Resource)
		buf = appendF64(buf, r.PerResource[i].PPS)
	}
	return buf
}

// AppendBatchRequest encodes a batch request payload.
func AppendBatchRequest(buf []byte, r *BatchRequest) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r.Requests)))
	for i := range r.Requests {
		buf = appendPredictRequest(buf, &r.Requests[i])
	}
	return buf
}

// AppendBatchResponse encodes a batch response payload. Errors must be
// empty or exactly as long as Responses.
func AppendBatchResponse(buf []byte, r *BatchResponse) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r.Responses)))
	hasErrs := byte(0)
	if len(r.Errors) > 0 {
		hasErrs = 1
	}
	buf = append(buf, hasErrs)
	for i := range r.Responses {
		buf = AppendPredictResponse(buf, &r.Responses[i])
		if hasErrs == 1 {
			buf = appendStr(buf, r.Errors[i])
		}
	}
	return buf
}

// AppendError encodes an error payload.
func AppendError(buf []byte, e *ErrorFrame) []byte {
	buf = binary.AppendUvarint(buf, uint64(e.Status))
	buf = appendStr(buf, e.Code)
	buf = appendStr(buf, e.Message)
	buf = appendStr(buf, e.RequestID)
	buf = appendF64(buf, e.RetryAfterSec)
	return buf
}

// AppendCall encodes a generic tunneled request payload.
func AppendCall(buf []byte, c *Call) []byte {
	buf = appendStr(buf, c.Method)
	buf = appendStr(buf, c.URI)
	buf = appendStr(buf, c.ContentType)
	buf = appendStr(buf, c.RequestID)
	return appendBytes(buf, c.Body)
}

// AppendCallResp encodes a tunneled response payload.
func AppendCallResp(buf []byte, c *CallResp) []byte {
	buf = binary.AppendUvarint(buf, uint64(c.Status))
	buf = binary.AppendUvarint(buf, uint64(len(c.Headers)))
	for i := range c.Headers {
		buf = appendStr(buf, c.Headers[i].Key)
		buf = appendStr(buf, c.Headers[i].Value)
	}
	return appendBytes(buf, c.Body)
}

// --- decoders ---------------------------------------------------------
//
// Decoders parse a full payload and must never panic on malformed
// input: every length is checked against the remaining bytes, and any
// damage surfaces as errBadPayload. Decoded strings and byte slices
// are copies — safe to keep after the Framer's buffer is reused.

type reader struct {
	b   []byte
	off int
	bad bool
}

func (r *reader) fail() { r.bad = true }

func (r *reader) uvarint() uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	if r.bad {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *reader) f64() float64 {
	if r.bad || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *reader) byteVal() byte {
	if r.bad || r.off >= len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// raw returns the next length-prefixed field as a view of the payload,
// to be copied (str, bytesCopy) or resolved (RequestSink).
func (r *reader) raw() []byte {
	n := r.uvarint()
	if r.bad || uint64(len(r.b)-r.off) < n {
		r.fail()
		return nil
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

func (r *reader) str() string { return string(r.raw()) }

func (r *reader) bytesCopy() []byte {
	b := r.raw()
	if r.bad {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// count validates a collection length against what the remaining bytes
// could possibly hold (at least one byte per element) before any
// allocation, so a forged huge count cannot make decode allocate
// gigabytes.
func (r *reader) count() int {
	n := r.uvarint()
	if r.bad || n > uint64(len(r.b)-r.off) {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *reader) done() error {
	if r.bad {
		return errBadPayload
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", errBadPayload, len(r.b)-r.off)
	}
	return nil
}

func (r *reader) profile() Profile {
	p := Profile{Flows: int(r.varint()), PktSize: int(r.varint())}
	if r.byteVal() == 1 {
		v := r.f64()
		p.MTBR = &v
	}
	return p
}

func (r *reader) predictResponse() PredictResponse {
	out := PredictResponse{
		NF:           r.str(),
		HW:           r.str(),
		Backend:      r.str(),
		Profile:      r.profile(),
		SoloPPS:      r.f64(),
		PredictedPPS: r.f64(),
		Bottleneck:   r.str(),
	}
	if n := r.count(); n > 0 {
		out.PerResource = make([]ResourcePPS, n)
		for i := range out.PerResource {
			out.PerResource[i] = ResourcePPS{Resource: r.str(), PPS: r.f64()}
		}
	}
	return out
}

// DecodeHello parses a TypeHello payload.
func DecodeHello(b []byte) (string, error) {
	r := reader{b: b}
	key := r.str()
	return key, r.done()
}

// DecodePredictRequest parses a TypePredict payload.
func DecodePredictRequest(b []byte) (PredictRequest, error) {
	var k structSink
	err := DecodeRequestsInto(TypePredict, b, &k)
	return k.one, err
}

// DecodePredictResponse parses a TypePredictResp payload.
func DecodePredictResponse(b []byte) (PredictResponse, error) {
	r := reader{b: b}
	out := r.predictResponse()
	return out, r.done()
}

// RequestSink receives predict requests field by field, so a server
// builds its own request type with no PredictRequest in between. Name
// arguments are views of the payload: resolve or copy, never keep them.
type RequestSink interface {
	// Batch opens a TypeBatch payload of n requests (n ≤ its bytes).
	Batch(n int)
	// Request opens the next request; its Competitor calls follow.
	Request(nf, hw, backend []byte, p Profile, competitors int)
	Competitor(name []byte, p Profile)
}

// DecodeRequestsInto decodes a TypePredict (typ) or TypeBatch payload
// into a sink; it is the one parser of the request layout, and the
// struct decoders are sinks over it. After an error the sink holds a
// prefix; discard it.
func DecodeRequestsInto(typ byte, b []byte, sink RequestSink) error {
	r := reader{b: b}
	n := 1
	if typ == TypeBatch {
		if n = r.count(); !r.bad {
			sink.Batch(n)
		}
	}
	for ; n > 0 && !r.bad; n-- {
		nf, hw, backend, p, comps := r.raw(), r.raw(), r.raw(), r.profile(), r.count()
		if r.bad {
			break
		}
		sink.Request(nf, hw, backend, p, comps)
		for ; comps > 0 && !r.bad; comps-- {
			if name, cp := r.raw(), r.profile(); !r.bad {
				sink.Competitor(name, cp)
			}
		}
	}
	return r.done()
}

// structSink is the RequestSink behind DecodePredictRequest: it rebuilds
// the requests it is fed as this package's types, copying every name. It
// rebuilds a TypeBatch payload into batch.
type structSink struct {
	one   PredictRequest // a TypePredict payload's request
	batch BatchRequest   // a TypeBatch payload's
	cur   *PredictRequest
}

func (k *structSink) Batch(n int) {
	if n > 0 {
		k.batch.Requests = make([]PredictRequest, 0, n)
	}
}

func (k *structSink) Request(nf, hw, backend []byte, p Profile, competitors int) {
	k.cur = &k.one
	if k.batch.Requests != nil {
		k.batch.Requests = append(k.batch.Requests, PredictRequest{})
		k.cur = &k.batch.Requests[len(k.batch.Requests)-1]
	}
	*k.cur = PredictRequest{NF: string(nf), HW: string(hw), Backend: string(backend), Profile: p}
	if competitors > 0 {
		k.cur.Competitors = make([]Competitor, 0, competitors)
	}
}

func (k *structSink) Competitor(name []byte, p Profile) {
	k.cur.Competitors = append(k.cur.Competitors, Competitor{Name: string(name), Profile: p})
}

// DecodeBatchResponse parses a TypeBatchResp payload.
func DecodeBatchResponse(b []byte) (BatchResponse, error) {
	r := reader{b: b}
	var out BatchResponse
	n := r.count()
	hasErrs := r.byteVal() == 1
	if n > 0 {
		out.Responses = make([]PredictResponse, n)
		if hasErrs {
			out.Errors = make([]string, n)
		}
		for i := range out.Responses {
			out.Responses[i] = r.predictResponse()
			if hasErrs {
				out.Errors[i] = r.str()
			}
		}
	}
	return out, r.done()
}

// DecodeError parses a TypeError payload.
func DecodeError(b []byte) (ErrorFrame, error) {
	r := reader{b: b}
	out := ErrorFrame{
		Status:        int(r.uvarint()),
		Code:          r.str(),
		Message:       r.str(),
		RequestID:     r.str(),
		RetryAfterSec: r.f64(),
	}
	return out, r.done()
}

// DecodeCall parses a TypeCall payload.
func DecodeCall(b []byte) (Call, error) {
	r := reader{b: b}
	out := Call{
		Method:      r.str(),
		URI:         r.str(),
		ContentType: r.str(),
		RequestID:   r.str(),
		Body:        r.bytesCopy(),
	}
	return out, r.done()
}

// DecodeCallResp parses a TypeCallResp payload.
func DecodeCallResp(b []byte) (CallResp, error) {
	r := reader{b: b}
	var out CallResp
	out.Status = int(r.uvarint())
	if n := r.count(); n > 0 {
		out.Headers = make([]HeaderKV, n)
		for i := range out.Headers {
			out.Headers[i] = HeaderKV{Key: r.str(), Value: r.str()}
		}
	}
	out.Body = r.bytesCopy()
	return out, r.done()
}
