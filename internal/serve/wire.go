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
	"repro/internal/obs"
	"repro/internal/tenant"
	"repro/internal/wire"
)

// This file mounts the yalawire binary protocol (internal/wire) on a
// Service: a persistent-connection listener that shares the Service's
// cache, worker pool, tenant gate and observability with the HTTP
// front end. Typed frames (TypePredict, TypeBatch) run the hot path
// with zero JSON through the request lifecycle in request.go; TypeCall
// tunnels any other request through the real HTTP handler so
// middleware semantics are byte-identical.

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
		if !ws.serveFrame(fr, f, apiKey) {
			return
		}
	}
}

// serveFrame answers one request frame; false tears the conn down.
func (ws *WireServer) serveFrame(fr *wire.Framer, f wire.Frame, apiKey string) bool {
	switch f.Type {
	case wire.TypeEcho:
		// Pure transport floor: no gate, no counters, no serving.
		return fr.WriteFrame(wire.TypeEchoAck, f.ID, f.Payload) == nil
	case wire.TypePredict:
		return serveTyped(ws, fr, f, apiKey, "predict", tenant.ClassInteractive, wire.TypePredictResp,
			decodeWirePredict, (*Service).predictOne, encodeWirePredict)
	case wire.TypeBatch:
		return serveTyped(ws, fr, f, apiKey, "batchPredict", tenant.ClassBulk, wire.TypeBatchResp,
			decodeWireBatch, (*Service).predictBatch, encodeWireBatch)
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
// encode triple — frame payload → service request, the service call,
// service response → frame payload (values, not pointers: what is
// handed to a func value escapes) — and name labels it in the access
// log.
func serveTyped[Req, Resp any](ws *WireServer, fr *wire.Framer, f wire.Frame, apiKey, name string, class tenant.Class, respType byte,
	decode func([]byte) (Req, error),
	run func(*Service, context.Context, Req) (Resp, error),
	encode func([]byte, Resp) []byte) bool {
	s := ws.svc
	rq := s.beginRequest(ws.ctx, true, "")
	buf, typ, status := wire.GetBuf(), respType, http.StatusOK
	adm := s.cfg.Gate.Enter(apiKey, class)
	ef := wire.ErrorFrame{Status: adm.Status, Code: adm.Code, Message: adm.Message, RetryAfterSec: adm.RetryAfter.Seconds()}
	if adm.OK {
		dsp := obs.StartSpan(rq.ctx, "decode")
		req, err := decode(f.Payload)
		dsp.End()
		var resp Resp
		if err != nil {
			err = badRequestf("%v", err)
		} else {
			resp, err = run(s, rq.ctx, req)
		}
		if err != nil {
			ef.Status, ef.Code = errorStatus(rq.ctx, err)
			ef.Message = err.Error()
		} else {
			esp := obs.StartSpan(rq.ctx, "encode")
			buf = encode(buf, resp)
			esp.End()
		}
	}
	if ef.Status != 0 {
		ef.RequestID = rq.tr.ID
		buf, typ, status = wire.AppendError(buf, &ef), wire.TypeError, ef.Status
	}
	// Observe before the flush, as net/http does for a handler: a client
	// holding its answer must find its request already counted.
	adm.Done(status)
	s.endRequest(rq, "WIRE", name, status)
	werr := fr.WriteFrame(typ, f.ID, buf)
	wire.PutBuf(buf)
	return werr == nil
}

// toWireResponse converts a service response to its wire shape.
// PerResourcePPS iterates a map; the slice order is not significant to
// clients (the JSON shape is a map too).
func toWireResponse(r *PredictResponse) wire.PredictResponse {
	out := wire.PredictResponse{
		NF:      r.NF,
		HW:      r.HW,
		Backend: string(r.Backend),
		Profile: wire.Profile{
			Flows:   r.Profile.Flows,
			PktSize: r.Profile.PktSize,
			MTBR:    r.Profile.MTBR,
		},
		SoloPPS:      r.SoloPPS,
		PredictedPPS: r.PredictedPPS,
		Bottleneck:   r.Bottleneck,
	}
	if len(r.PerResourcePPS) > 0 {
		out.PerResource = make([]wire.ResourcePPS, 0, len(r.PerResourcePPS))
		for res, pps := range r.PerResourcePPS {
			out.PerResource = append(out.PerResource, wire.ResourcePPS{Resource: res, PPS: pps})
		}
	}
	return out
}

// fromWireRequest converts a wire predict request to the service shape
// plus its hardware qualifier.
func fromWireRequest(w *wire.PredictRequest) hwPredict {
	req := PredictRequest{
		NF:      w.NF,
		Backend: w.Backend,
		Profile: ProfileSpec{Flows: w.Profile.Flows, PktSize: w.Profile.PktSize, MTBR: w.Profile.MTBR},
	}
	if len(w.Competitors) > 0 {
		req.Competitors = make([]CompetitorSpec, len(w.Competitors))
		for i, c := range w.Competitors {
			req.Competitors[i] = CompetitorSpec{
				Name:    c.Name,
				Profile: ProfileSpec{Flows: c.Profile.Flows, PktSize: c.Profile.PktSize, MTBR: c.Profile.MTBR},
			}
		}
	}
	return hwPredict{hw: w.HW, req: req}
}

// The two typed verbs' codecs: TypePredict ⇄ predictOne, TypeBatch ⇄
// predictBatch.

func decodeWirePredict(payload []byte) (hwPredict, error) {
	wreq, err := wire.DecodePredictRequest(payload)
	return fromWireRequest(&wreq), err
}

func encodeWirePredict(buf []byte, resp PredictResponse) []byte {
	wresp := toWireResponse(&resp)
	return wire.AppendPredictResponse(buf, &wresp)
}

func decodeWireBatch(payload []byte) ([]hwPredict, error) {
	wreq, err := wire.DecodeBatchRequest(payload)
	items := make([]hwPredict, len(wreq.Requests))
	for i := range wreq.Requests {
		items[i] = fromWireRequest(&wreq.Requests[i])
	}
	return items, err
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
