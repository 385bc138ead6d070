package serve

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/nf"
	"repro/internal/obs"
	"repro/internal/tenant"
	"repro/internal/wire"
)

// This file mounts the yalawire binary protocol (internal/wire) on a
// Service: a persistent-connection listener that shares the Service's
// cache, compute slots, tenant gate and observability with the HTTP
// front end. Typed frames (TypePredict, TypeBatch) run the hot path
// with zero JSON through the request lifecycle in request.go; TypeCall
// tunnels any other request through the real HTTP handler so
// middleware semantics are byte-identical.
//
// A typed frame decodes straight into the service's request type
// (requestSink), names resolved to the registries' own strings as they
// are read; a cached answer encodes from rows sorted when it was
// computed, so two hits of one entry put the same bytes on the wire.

// wireTransportKey marks a TypeCall tunnel's context, so withObs counts
// the request on the wire transport although it runs the HTTP handler.
type wireTransportKey struct{}

// WireAddr returns the advertised yalawire listener address, "" when
// none is mounted.
func (s *Service) WireAddr() string {
	if p := s.wireAddr.Load(); p != nil {
		return *p
	}
	return ""
}

// WireServer is a running yalawire listener bound to a Service.
type WireServer struct {
	svc     *Service
	handler http.Handler
	lis     net.Listener
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// ServeWire mounts a yalawire listener on the service. handler is the
// HTTP handler TypeCall frames dispatch through (normally the value of
// s.Handler(); nil disables TypeCall). The listener address is
// advertised in /v2/stats as wire_addr until Close.
func (s *Service) ServeWire(lis net.Listener, handler http.Handler) *WireServer {
	ctx, cancel := context.WithCancel(context.Background())
	ws := &WireServer{
		svc:     s,
		handler: handler,
		lis:     lis,
		ctx:     ctx,
		cancel:  cancel,
		conns:   map[net.Conn]struct{}{},
	}
	addr := lis.Addr().String()
	s.wireAddr.Store(&addr)
	ws.wg.Add(1)
	go ws.acceptLoop()
	return ws
}

// Addr returns the listener's address.
func (ws *WireServer) Addr() string { return ws.lis.Addr().String() }

// Close stops accepting, tears down every connection, and withdraws
// the wire_addr advertisement.
func (ws *WireServer) Close() {
	ws.cancel()
	ws.svc.wireAddr.Store(new(string))
	ws.lis.Close()
	ws.mu.Lock()
	for c := range ws.conns {
		c.Close()
	}
	ws.mu.Unlock()
	ws.wg.Wait()
}

func (ws *WireServer) acceptLoop() {
	defer ws.wg.Done()
	for {
		c, err := ws.lis.Accept()
		if err != nil {
			return
		}
		ws.mu.Lock()
		ws.conns[c] = struct{}{}
		ws.mu.Unlock()
		ws.wg.Add(1)
		go ws.serveConn(c)
	}
}

// serveConn drives one connection: a Hello handshake binding the API
// key, then strictly serial request frames until hangup or a framing
// error. Frame-level damage tears the connection down — clients fall
// back to HTTP and redial.
func (ws *WireServer) serveConn(c net.Conn) {
	defer ws.wg.Done()
	defer func() {
		ws.mu.Lock()
		delete(ws.conns, c)
		ws.mu.Unlock()
		c.Close()
	}()
	fr := wire.NewFramer(c)
	var sink requestSink // reused by every typed frame on this connection
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := fr.ReadFrame()
	if err != nil || f.Type != wire.TypeHello {
		return
	}
	apiKey, err := wire.DecodeHello(f.Payload)
	if err != nil {
		return
	}
	if fr.WriteFrame(wire.TypeHelloAck, f.ID, nil) != nil {
		return
	}
	c.SetReadDeadline(time.Time{})
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			return
		}
		if !ws.serveFrame(fr, f, apiKey, &sink) {
			return
		}
	}
}

// serveFrame answers one request frame; false tears the conn down.
func (ws *WireServer) serveFrame(fr *wire.Framer, f wire.Frame, apiKey string, sink *requestSink) bool {
	switch f.Type {
	case wire.TypeEcho:
		// Pure transport floor: no gate, no counters, no serving.
		return fr.WriteFrame(wire.TypeEchoAck, f.ID, f.Payload) == nil
	case wire.TypePredict:
		return serveTyped(ws, fr, f, apiKey, "predict", tenant.ClassInteractive, wire.TypePredictResp,
			sink.predict, (*Service).predictOne, encodeWirePredict)
	case wire.TypeBatch:
		return serveTyped(ws, fr, f, apiKey, "batchPredict", tenant.ClassBulk, wire.TypeBatchResp,
			sink.batch, (*Service).predictBatchAt, encodeWireBatch)
	case wire.TypeCall:
		return ws.serveCall(fr, f, apiKey)
	default:
		return ws.writeError(fr, f.ID, http.StatusBadRequest, api.CodeInvalidArgument, fmt.Sprintf("unknown frame type %d", f.Type))
	}
}

// writeError answers a frame that never became a request (unknown
// type, undecodable or undispatchable Call).
func (ws *WireServer) writeError(fr *wire.Framer, id uint64, status int, code, message string) bool {
	buf := wire.AppendError(wire.GetBuf(), &wire.ErrorFrame{Status: status, Code: code, Message: message})
	err := fr.WriteFrame(wire.TypeError, id, buf)
	wire.PutBuf(buf)
	return err == nil
}

// serveTyped is the yalawire end of the request lifecycle, the one
// driver behind every typed frame: open the request, admit it through
// the tenant gate (no tarpit here — a stalled wire conn would stall its
// whole pipeline), then decode → run → encode into the response frame
// or the error frame errorStatus shapes, close the gate's observation
// and the request's on every path, and send. The verb is the decode/run/
// encode triple — frame payload → service request, the service call
// (handed the instant decoding ended, where its first stage starts),
// service response → frame payload (values, not pointers: what is
// handed to a func value escapes) — and name labels it in the access
// log. An answered request reads the clock six times: on arrival, at
// both ends of decode and of encode, and where the cache stage ends.
func serveTyped[Req, Resp any](ws *WireServer, fr *wire.Framer, f wire.Frame, apiKey, name string, class tenant.Class, respType byte,
	decode func([]byte) (Req, error),
	run func(*Service, context.Context, Req, time.Time) (Resp, error),
	encode func([]byte, Resp) []byte) bool {
	s := ws.svc
	now := time.Now() // throughout: the latest clock read
	rq := s.beginRequest(ws.ctx, true, "", now)
	buf, typ, status := wire.GetBuf(), respType, http.StatusOK
	adm := s.cfg.Gate.Enter(apiKey, class, now)
	ef := wire.ErrorFrame{Status: adm.Status, Code: adm.Code, Message: adm.Message, RetryAfterSec: adm.RetryAfter.Seconds()}
	if adm.OK {
		dsp := obs.StartSpan(rq.ctx, "decode")
		req, err := decode(f.Payload)
		now = dsp.End()
		var resp Resp
		if err != nil {
			err = badRequestf("%v", err)
		} else {
			resp, err = run(s, rq.ctx, req, now)
		}
		if err != nil {
			ef.Status, ef.Code = errorStatus(rq.ctx, err)
			ef.Message = err.Error()
		} else {
			esp := obs.StartSpan(rq.ctx, "encode")
			buf = encode(buf, resp)
			now = esp.End()
		}
	}
	if ef.Status != 0 {
		ef.RequestID = rq.tr.ID
		buf, typ, status = wire.AppendError(buf, &ef), wire.TypeError, ef.Status
		now = time.Now()
	}
	// Observe before the flush, as net/http does for a handler: a client
	// holding its answer must find its request already counted.
	adm.Done(status, now)
	s.endRequest(rq, "WIRE", name, status, now)
	werr := fr.WriteFrame(typ, f.ID, buf)
	wire.PutBuf(buf)
	return werr == nil
}

// wireNames interns the names a predict frame can carry — catalog NFs,
// backends, hardware classes — so decoding a known name allocates
// nothing. Filled once from the registries: a client's bytes cannot grow
// it, and a name it lacks is copied and fails validation as ever.
var wireNames = sync.OnceValue(func() map[string]string {
	names := map[string]string{}
	for _, list := range [][]string{nf.Names(), backend.Names(), cluster.ClassNames()} {
		for _, n := range list {
			names[n] = n
		}
	}
	return names
})

func internName(b []byte) string {
	if s, ok := wireNames()[string(b)]; ok {
		return s
	}
	return string(b)
}

// requestSink decodes typed frames straight into hwPredicts
// (wire.RequestSink). One lives per connection, reset by every decode;
// what a decode returns shares nothing with the next frame's.
type requestSink struct {
	one   hwPredict   // a TypePredict frame's request
	items []hwPredict // a TypeBatch frame's
	cur   *hwPredict
}

func (k *requestSink) predict(payload []byte) (hwPredict, error) {
	*k = requestSink{}
	err := wire.DecodeRequestsInto(wire.TypePredict, payload, k)
	return k.one, err
}

func (k *requestSink) batch(payload []byte) ([]hwPredict, error) {
	*k = requestSink{}
	err := wire.DecodeRequestsInto(wire.TypeBatch, payload, k)
	return k.items, err
}

func (k *requestSink) Batch(n int) { k.items = make([]hwPredict, 0, n) }

func (k *requestSink) Request(nf, hw, backendName []byte, p wire.Profile, competitors int) {
	k.cur = &k.one
	if k.items != nil {
		k.items = append(k.items, hwPredict{})
		k.cur = &k.items[len(k.items)-1]
	}
	*k.cur = hwPredict{hw: internName(hw), req: PredictRequest{NF: internName(nf), Backend: internName(backendName), Profile: ProfileSpec(p)}}
	if competitors > 0 {
		k.cur.req.Competitors = make([]CompetitorSpec, 0, competitors)
	}
}

func (k *requestSink) Competitor(name []byte, p wire.Profile) {
	k.cur.req.Competitors = append(k.cur.req.Competitors, CompetitorSpec{Name: internName(name), Profile: ProfileSpec(p)})
}

// toWireResponse converts a service response to its wire shape.
func toWireResponse(r *PredictResponse) wire.PredictResponse {
	return wire.PredictResponse{
		NF:           r.NF,
		HW:           r.HW,
		Backend:      string(r.Backend),
		Profile:      wire.Profile(r.Profile),
		SoloPPS:      r.SoloPPS,
		PredictedPPS: r.PredictedPPS,
		Bottleneck:   r.Bottleneck,
		PerResource:  r.rows,
	}
}

func encodeWirePredict(buf []byte, resp PredictResponse) []byte {
	wresp := toWireResponse(&resp)
	return wire.AppendPredictResponse(buf, &wresp)
}

func encodeWireBatch(buf []byte, resp BatchResponse) []byte {
	wresp := wire.BatchResponse{Responses: make([]wire.PredictResponse, len(resp.Responses)), Errors: resp.Errors}
	for i := range resp.Responses {
		wresp.Responses[i] = toWireResponse(&resp.Responses[i])
	}
	return wire.AppendBatchResponse(buf, &wresp)
}

// memResponse is the in-memory http.ResponseWriter TypeCall dispatch
// renders into.
type memResponse struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (m *memResponse) Header() http.Header { return m.hdr }
func (m *memResponse) WriteHeader(code int) {
	if m.status == 0 {
		m.status = code
	}
}
func (m *memResponse) Write(b []byte) (int, error) {
	m.WriteHeader(http.StatusOK)
	return m.buf.Write(b)
}

// serveCall tunnels one HTTP-shaped request through the real HTTP
// handler: the tenant gate, withObs, routing, caching and error
// envelopes all behave exactly as over TCP HTTP, so wire upstreams
// never diverge semantically from JSON upstreams.
func (ws *WireServer) serveCall(fr *wire.Framer, f wire.Frame, apiKey string) bool {
	call, err := wire.DecodeCall(f.Payload)
	if err != nil {
		return ws.writeError(fr, f.ID, http.StatusBadRequest, api.CodeInvalidArgument, err.Error())
	}
	if ws.handler == nil {
		return ws.writeError(fr, f.ID, http.StatusNotFound, api.CodeNotFound,
			"wire listener mounted without an HTTP handler; TypeCall is disabled")
	}
	ctx := context.WithValue(ws.ctx, wireTransportKey{}, true)
	req, err := http.NewRequestWithContext(ctx, call.Method, call.URI, bytes.NewReader(call.Body))
	if err != nil {
		return ws.writeError(fr, f.ID, http.StatusBadRequest, api.CodeInvalidArgument, err.Error())
	}
	if call.ContentType != "" {
		req.Header.Set("Content-Type", call.ContentType)
	}
	if call.RequestID != "" {
		req.Header.Set("X-Request-Id", call.RequestID)
	}
	if apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+apiKey)
	}
	rec := &memResponse{hdr: http.Header{}}
	ws.handler.ServeHTTP(rec, req)
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	out := wire.CallResp{Status: rec.status, Body: rec.buf.Bytes()}
	for _, k := range api.ForwardedHeaders {
		if v := rec.hdr.Get(k); v != "" {
			out.Headers = append(out.Headers, wire.HeaderKV{Key: k, Value: v})
		}
	}
	buf := wire.AppendCallResp(wire.GetBuf(), &out)
	werr := fr.WriteFrame(wire.TypeCallResp, f.ID, buf)
	wire.PutBuf(buf)
	return werr == nil
}
