package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// BatchRequest is the typed :batchPredict payload.
type BatchRequest struct {
	Requests []PredictRequest
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

// AppendHelloAck encodes a HelloAck payload: the same-host socket the
// server offers, none (an empty payload) when local is "".
func AppendHelloAck(buf []byte, local string) []byte {
	if local == "" {
		return buf
	}
	return appendStr(buf, local)
}

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
// are copies (a request's names: what intern returns) — safe to keep
// after the Framer's buffer is reused.

type reader struct {
	b      []byte
	off    int
	bad    bool
	intern func([]byte) string // makes a request's names; nil copies
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
// to be copied (str, bytesCopy) or interned (name).
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

// name reads one of a request's names (NF, hardware class, backend or
// competitor) through intern.
func (r *reader) name() string {
	if r.intern == nil {
		return r.str()
	}
	return r.intern(r.raw())
}

func (r *reader) bytesCopy() []byte {
	b := r.raw()
	if r.bad {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// The fewest bytes one encoded element of each collection takes: a
// string is at least its length byte, a profile its two varints and its
// MTBR flag.
const (
	minCompetitor = 4  // name, profile
	minRequest    = 7  // three names, profile, competitor count
	minRow        = 9  // resource name, float
	minResponse   = 24 // three names, profile, two floats, bottleneck, row count
	minHeader     = 2  // key, value
)

// count validates a collection length against what the remaining bytes
// could possibly hold, minLen bytes per element, before any allocation:
// a forged count fails here instead of making decode allocate for
// elements whose bytes never arrived.
func (r *reader) count(minLen int) int {
	n := r.uvarint()
	if r.bad || n > uint64((len(r.b)-r.off)/minLen) {
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

func (r *reader) request() PredictRequest {
	req := PredictRequest{NF: r.name(), HW: r.name(), Backend: r.name(), Profile: r.profile()}
	if n := r.count(minCompetitor); n > 0 {
		req.Competitors = make([]Competitor, n)
		for i := range req.Competitors {
			req.Competitors[i] = Competitor{Name: r.name(), Profile: r.profile()}
		}
	}
	return req
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
	if n := r.count(minRow); n > 0 {
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

// maxLocalName is the longest same-host socket name a HelloAck may
// offer: the path size of a Unix socket address, whose leading NUL (the
// abstract namespace's mark) the name's "@" stands for.
const maxLocalName = 108

// DecodeHelloAck parses a HelloAck payload: the offered same-host socket
// name, "" for none. An offer must name a socket in Linux's abstract
// namespace ("@" first, at most maxLocalName bytes), so no server
// can point a client at a socket file.
func DecodeHelloAck(b []byte) (string, error) {
	if len(b) == 0 {
		return "", nil
	}
	r := reader{b: b}
	local := r.str()
	if err := r.done(); err != nil {
		return "", err
	}
	if local != "" && (local[0] != '@' || len(local) > maxLocalName) {
		return "", fmt.Errorf("%w: offered socket %q is not an abstract name", errBadPayload, local)
	}
	return local, nil
}

// DecodeRequest parses a TypePredict payload. intern makes each name's
// string from its bytes, a view of b that must not be kept: a server
// maps the names it knows to its own strings, so a known name costs no
// allocation. A nil intern copies every name.
func DecodeRequest(b []byte, intern func([]byte) string) (PredictRequest, error) {
	r := reader{b: b, intern: intern}
	req := r.request()
	return req, r.done()
}

// DecodeBatchRequest parses a TypeBatch payload, names as DecodeRequest.
func DecodeBatchRequest(b []byte, intern func([]byte) string) (BatchRequest, error) {
	r := reader{b: b, intern: intern}
	var out BatchRequest
	if n := r.count(minRequest); n > 0 {
		out.Requests = make([]PredictRequest, n)
		for i := range out.Requests {
			out.Requests[i] = r.request()
		}
	}
	return out, r.done()
}

// DecodePredictRequest is DecodeRequest copying every name.
func DecodePredictRequest(b []byte) (PredictRequest, error) { return DecodeRequest(b, nil) }

// DecodePredictResponse parses a TypePredictResp payload.
func DecodePredictResponse(b []byte) (PredictResponse, error) {
	r := reader{b: b}
	out := r.predictResponse()
	return out, r.done()
}

// DecodeBatchResponse parses a TypeBatchResp payload.
func DecodeBatchResponse(b []byte) (BatchResponse, error) {
	r := reader{b: b}
	var out BatchResponse
	n := r.count(minResponse)
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
	if n := r.count(minHeader); n > 0 {
		out.Headers = make([]HeaderKV, n)
		for i := range out.Headers {
			out.Headers[i] = HeaderKV{Key: r.str(), Value: r.str()}
		}
	}
	out.Body = r.bytesCopy()
	return out, r.done()
}
