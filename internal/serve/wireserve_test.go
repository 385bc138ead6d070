package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/loadgen"
	"repro/internal/tenant"
	"repro/internal/wire"
	"repro/pkg/yalaclient"
)

// wireTestServer boots a service with both front doors: the HTTP
// handler behind httptest and a yalawire listener on loopback. The
// fake backend keeps predictions instant and deterministic.
func wireTestServer(t *testing.T, gate *tenant.Gate) (*Service, *httptest.Server, *WireServer) {
	t.Helper()
	svc := NewService(ServiceConfig{
		Registry: testRegistryConfig(t),
		Workers:  2,
		Gate:     gate,
	})
	t.Cleanup(svc.Close)
	handler := svc.Handler()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	wlis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := svc.ServeWire(wlis, handler)
	t.Cleanup(ws.Close)
	return svc, ts, ws
}

// TestWirePredictEndToEnd drives the SDK's wire transport against a
// live wire listener: predict and batch ride binary frames (the wire
// request counter moves, the HTTP one does not), responses match the
// JSON path's, and service errors surface as the same typed errors.
func TestWirePredictEndToEnd(t *testing.T) {
	svc, ts, ws := wireTestServer(t, nil)
	wc := yalaclient.New(ts.URL, yalaclient.WithWire(ws.Addr()))
	defer wc.Close()
	ctx := context.Background()

	res, err := wc.Predict(ctx, yalaclient.ModelID{NF: "ACL"}, "fake", yalaclient.PredictParams{
		Profile:     yalaclient.ProfileSpec{Flows: 1000},
		Competitors: []yalaclient.Competitor{{Name: "NIDS"}},
	})
	if err != nil {
		t.Fatalf("wire predict: %v", err)
	}
	if res.NF != "ACL" || res.Backend != "fake" || res.PredictedPPS <= 0 {
		t.Fatalf("wire predict result %+v", res)
	}
	if got := svc.wireRequests.Load(); got != 1 {
		t.Fatalf("wire request counter = %d, want 1", got)
	}

	// The JSON path must agree byte-for-byte on the numbers: same
	// service, same cache, different framing.
	jc := yalaclient.New(ts.URL)
	jres, err := jc.Predict(ctx, yalaclient.ModelID{NF: "ACL"}, "fake", yalaclient.PredictParams{
		Profile:     yalaclient.ProfileSpec{Flows: 1000},
		Competitors: []yalaclient.Competitor{{Name: "NIDS"}},
	})
	if err != nil {
		t.Fatalf("json predict: %v", err)
	}
	if jres.PredictedPPS != res.PredictedPPS || jres.SoloPPS != res.SoloPPS {
		t.Fatalf("wire %+v and JSON %+v disagree", res, jres)
	}

	batch, err := wc.PredictBatch(ctx, []yalaclient.BatchItem{
		{Model: yalaclient.ModelID{NF: "ACL"}, Backend: "fake"},
		{Model: yalaclient.ModelID{NF: "NAT"}, Backend: "fake"},
	})
	if err != nil {
		t.Fatalf("wire batch: %v", err)
	}
	if len(batch.Responses) != 2 || batch.Responses[1].NF != "NAT" {
		t.Fatalf("wire batch result %+v", batch)
	}
	if got := svc.wireRequests.Load(); got != 2 {
		t.Fatalf("wire request counter = %d after batch, want 2", got)
	}
	if got := svc.httpRequests.Load(); got != 1 {
		t.Fatalf("http request counter = %d, want only the JSON control predict", got)
	}

	// A service error crosses the wire as the same typed error the JSON
	// path produces — and never as a transport failure that would park
	// the wire path.
	_, err = wc.Predict(ctx, yalaclient.ModelID{NF: "NoSuchNF"}, "fake", yalaclient.PredictParams{})
	var apiErr *yalaclient.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("unknown NF over wire: %v, want *yalaclient.APIError", err)
	}
	if !wc.WireActive() {
		t.Fatal("service error parked the wire transport")
	}
}

// TestWireTransportMetrics pins what the exposition says about wire
// traffic. One OK predict, one gate refusal (429) and one malformed
// predict frame each count once on yala_requests_total{transport="wire"}
// and once in yala_request_seconds — exactly as the same three outcomes
// do over HTTP, whose one JSON predict counts on its own series — and
// the decode and encode stages, which only the front door can span,
// receive samples from wire requests.
func TestWireTransportMetrics(t *testing.T) {
	reg, err := tenant.Parse([]byte(`{
		"tenants": [{"name": "capped", "key": "k-capped", "rps": 1, "burst": 1}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	svc, ts, ws := wireTestServer(t, tenant.NewGate(reg, tenant.GateConfig{}))
	ctx := context.Background()
	wc := yalaclient.New(ts.URL, yalaclient.WithWire(ws.Addr()), yalaclient.WithAPIKey("k-capped"))
	defer wc.Close()
	if _, err := wc.Predict(ctx, yalaclient.ModelID{NF: "ACL"}, "fake", yalaclient.PredictParams{}); err != nil {
		t.Fatal(err)
	}
	var rle *yalaclient.RateLimitError
	if _, err := wc.Predict(ctx, yalaclient.ModelID{NF: "ACL"}, "fake", yalaclient.PredictParams{}); !errors.As(err, &rle) {
		t.Fatalf("second capped predict: %v, want *RateLimitError", err)
	}
	pool := wire.NewPool(ws.Addr(), "", 1)
	defer pool.Close()
	err = pool.Do(ctx, wire.TypePredict, []byte{0xff}, func(f wire.Frame) error {
		if ef, derr := wire.DecodeError(f.Payload); f.Type != wire.TypeError || derr != nil || ef.Status != http.StatusBadRequest {
			return fmt.Errorf("malformed predict frame answered type %d %+v (%v), want a 400 error frame", f.Type, ef, derr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := yalaclient.New(ts.URL).Predict(ctx, yalaclient.ModelID{NF: "ACL"}, "fake", yalaclient.PredictParams{}); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := svc.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	exposition := sb.String()
	for _, want := range []string{
		`yala_requests_total{transport="wire"} 3`,
		`yala_requests_total{transport="http"} 1`,
		`yala_request_seconds_count 4`,
	} {
		if !strings.Contains(exposition, want) {
			t.Fatalf("exposition missing %q:\n%s", want, exposition)
		}
	}
	// The JSON predict contributes one decode and one encode sample; the
	// wire requests must add their own (OK predict: both; malformed
	// frame: decode).
	if got := svc.stageHist["decode"].Count(); got != 3 {
		t.Fatalf("decode stage count = %d, want 3 (1 HTTP + 2 wire)", got)
	}
	if got := svc.stageHist["encode"].Count(); got != 2 {
		t.Fatalf("encode stage count = %d, want 2 (1 HTTP + 1 wire)", got)
	}
}

// TestWireIngestUsesHTTP: WithWire names Predict and PredictBatch only,
// so an IngestBatch from a wire-configured client moves the HTTP
// request counter and leaves the wire one alone.
func TestWireIngestUsesHTTP(t *testing.T) {
	svc, ts, ws := wireTestServer(t, nil)
	wc := yalaclient.New(ts.URL, yalaclient.WithWire(ws.Addr()))
	defer wc.Close()
	res, err := wc.IngestBatch(context.Background(), []yalaclient.Measurement{
		{Model: yalaclient.ModelID{NF: "ACL"}, Backend: "fake", MeasuredPPS: 1e6},
	})
	if err != nil || res.Accepted != 1 {
		t.Fatalf("ingest: %+v, %v", res, err)
	}
	var sb strings.Builder
	if err := svc.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`yala_requests_total{transport="http"} 1`,
		`yala_requests_total{transport="wire"} 0`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}

// TestWireCallTunnel exercises the generic TypeCall path the gateway's
// wire upstreams ride: a stats GET tunneled through the real HTTP
// handler, answering with the HTTP status, forwarded headers and body.
func TestWireCallTunnel(t *testing.T) {
	_, _, ws := wireTestServer(t, nil)
	pool := wire.NewPool(ws.Addr(), "", 2)
	defer pool.Close()

	call := wire.Call{Method: http.MethodGet, URI: "/v2/stats", RequestID: "tunnel-1"}
	buf := wire.AppendCall(wire.GetBuf(), &call)
	defer wire.PutBuf(buf)
	var status int
	var body string
	var rid string
	err := pool.Do(context.Background(), wire.TypeCall, buf, func(f wire.Frame) error {
		if f.Type != wire.TypeCallResp {
			return fmt.Errorf("frame type %d", f.Type)
		}
		resp, err := wire.DecodeCallResp(f.Payload)
		if err != nil {
			return err
		}
		status = resp.Status
		body = string(resp.Body)
		for _, kv := range resp.Headers {
			if kv.Key == "X-Request-Id" {
				rid = kv.Value
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("TypeCall: %v", err)
	}
	if status != http.StatusOK {
		t.Fatalf("tunneled /v2/stats status %d: %s", status, body)
	}
	// The stats body must advertise the wire listener itself — that is
	// what gateway discovery keys on.
	if !strings.Contains(body, `"wire_addr":"`+ws.Addr()+`"`) {
		t.Fatalf("stats over wire does not advertise wire_addr: %s", body)
	}
	if rid != "tunnel-1" {
		t.Fatalf("tunneled request lost its X-Request-Id: %q", rid)
	}
}

// TestWireUnknownFrameType: a frame type the server does not know is
// answered with a TypeError under the same request ID — 400,
// invalid_argument, naming the type — and the connection keeps serving:
// a predict on it right after is answered normally.
func TestWireUnknownFrameType(t *testing.T) {
	_, _, ws := wireTestServer(t, nil)
	c, err := net.Dial("tcp", ws.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fr := wire.NewFramer(c)
	exchange := func(typ byte, id uint64, payload []byte) wire.Frame {
		t.Helper()
		if err := fr.WriteFrame(typ, id, payload); err != nil {
			t.Fatal(err)
		}
		f, err := fr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.ID != id {
			t.Fatalf("frame type %d id %d answered with id %d", typ, id, f.ID)
		}
		return f
	}
	if f := exchange(wire.TypeHello, 1, wire.AppendHello(nil, "")); f.Type != wire.TypeHelloAck {
		t.Fatalf("handshake answered with type %d", f.Type)
	}

	f := exchange(42, 77, []byte("whatever"))
	if f.Type != wire.TypeError {
		t.Fatalf("unknown frame type answered with type %d, want TypeError", f.Type)
	}
	e, err := wire.DecodeError(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if e.Status != http.StatusBadRequest || e.Code != api.CodeInvalidArgument || !strings.Contains(e.Message, "42") {
		t.Fatalf("unknown frame type error %+v, want 400 %s naming type 42", e, api.CodeInvalidArgument)
	}

	req := wire.PredictRequest{NF: "ACL", Backend: "fake", Competitors: []wire.Competitor{{Name: "NIDS"}}}
	f = exchange(wire.TypePredict, 78, wire.AppendPredictRequest(nil, &req))
	if f.Type != wire.TypePredictResp {
		t.Fatalf("predict after the unknown frame answered with type %d", f.Type)
	}
	res, err := wire.DecodePredictResponse(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if res.NF != "ACL" || res.PredictedPPS <= 0 {
		t.Fatalf("predict after the unknown frame: %+v", res)
	}
}

// TestWireNaNProfileRejected: a typed frame carries a profile's MTBR as
// raw float64 bits, so unlike JSON it can carry NaN, which fails both of
// a naive range check's comparisons. A NaN MTBR, on the target or on a
// competitor, is answered with an invalid-argument error frame — not
// measured, where it would panic the connection's goroutine and with it
// the process — and the next predict on the same connection succeeds.
func TestWireNaNProfileRejected(t *testing.T) {
	_, _, ws := wireTestServer(t, nil)
	c, err := net.Dial("tcp", ws.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fr := wire.NewFramer(c)
	exchange := func(typ byte, id uint64, payload []byte) wire.Frame {
		t.Helper()
		if err := fr.WriteFrame(typ, id, payload); err != nil {
			t.Fatal(err)
		}
		f, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", id, err)
		}
		return f
	}
	if f := exchange(wire.TypeHello, 1, wire.AppendHello(nil, "")); f.Type != wire.TypeHelloAck {
		t.Fatalf("handshake answered with type %d", f.Type)
	}
	nan := math.NaN()
	bad := wire.Profile{Flows: 1000, MTBR: &nan}
	for i, req := range []wire.PredictRequest{
		{NF: "ACL", Backend: "fake", Profile: bad},
		{NF: "ACL", Backend: "fake", Competitors: []wire.Competitor{{Name: "NIDS", Profile: bad}}},
	} {
		f := exchange(wire.TypePredict, uint64(10+i), wire.AppendPredictRequest(nil, &req))
		if f.Type != wire.TypeError {
			t.Fatalf("NaN-MTBR predict %d answered with type %d, want TypeError", i, f.Type)
		}
		e, err := wire.DecodeError(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if e.Status != http.StatusBadRequest || e.Code != api.CodeInvalidArgument || !strings.Contains(e.Message, "mtbr") {
			t.Fatalf("NaN-MTBR predict %d: error %+v, want 400 %s naming mtbr", i, e, api.CodeInvalidArgument)
		}
	}
	mtbr := 600.0
	req := wire.PredictRequest{NF: "ACL", Backend: "fake", Competitors: []wire.Competitor{{Name: "NIDS", Profile: wire.Profile{Flows: 1000, MTBR: &mtbr}}}}
	f := exchange(wire.TypePredict, 20, wire.AppendPredictRequest(nil, &req))
	if f.Type != wire.TypePredictResp {
		t.Fatalf("predict after the NaN frames answered with type %d", f.Type)
	}
	if res, err := wire.DecodePredictResponse(f.Payload); err != nil || res.PredictedPPS <= 0 {
		t.Fatalf("predict after the NaN frames: %+v, %v", res, err)
	}
}

// TestWireGateRefusal: the tenant gate refuses over the wire with the
// same status/code/Retry-After triple the HTTP middleware sends, and
// the refusal does not tear the connection down.
func TestWireGateRefusal(t *testing.T) {
	reg, err := tenant.Parse([]byte(`{
		"tenants": [{"name": "capped", "key": "k-capped", "rps": 1, "burst": 1}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	_, ts, ws := wireTestServer(t, tenant.NewGate(reg, tenant.GateConfig{}))
	wc := yalaclient.New(ts.URL, yalaclient.WithWire(ws.Addr()), yalaclient.WithAPIKey("k-capped"))
	defer wc.Close()
	ctx := context.Background()

	if _, err := wc.Predict(ctx, yalaclient.ModelID{NF: "ACL"}, "fake", yalaclient.PredictParams{}); err != nil {
		t.Fatalf("first capped predict: %v", err)
	}
	_, err = wc.Predict(ctx, yalaclient.ModelID{NF: "ACL"}, "fake", yalaclient.PredictParams{})
	var rle *yalaclient.RateLimitError
	if !errors.As(err, &rle) {
		t.Fatalf("second capped predict: %v, want *RateLimitError", err)
	}
	if rle.RetryAfter <= 0 {
		t.Fatalf("wire 429 lost its retry hint: %+v", rle)
	}
	if !wc.WireActive() {
		t.Fatal("a shed parked the wire transport")
	}
}

// TestWireEchoFloor sanity-checks the loadgen -wirefloor measurement
// path against a live listener: every frame answered, latencies
// recorded, throughput positive.
func TestWireEchoFloor(t *testing.T) {
	_, _, ws := wireTestServer(t, nil)
	rep, err := loadgen.WireEchoFloor(ws.Addr(), 2, 200, 64)
	if err != nil {
		t.Fatalf("floor run: %v", err)
	}
	if rep.Frames != 200 || rep.Errors != 0 {
		t.Fatalf("floor report %+v, want 200 clean frames", rep)
	}
	if rep.FPS <= 0 || rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Fatalf("floor percentiles look wrong: %+v", rep)
	}
}

// TestCanceledRequestsKeepGateIdle is the shed-signal regression test:
// a flood of requests whose clients already hung up must answer 499,
// count into yala_client_canceled_total, and leave the tenant gate's
// pressure signal untouched — canceled clients are not server errors
// and must never push the gate toward shedding live traffic.
func TestCanceledRequestsKeepGateIdle(t *testing.T) {
	reg, err := tenant.Parse([]byte(`{"tenants": []}`))
	if err != nil {
		t.Fatal(err)
	}
	gate := tenant.NewGate(reg, tenant.GateConfig{})
	svc, _, _ := wireTestServer(t, gate)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	handler := svc.Handler()
	const flood = 25
	for i := 0; i < flood; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v2/models/ACL/fake:predict",
			strings.NewReader(`{"profile":{"flows":`+fmt.Sprint(1000+i)+`}}`))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req.WithContext(canceled))
		if rec.Code != api.StatusClientClosedRequest {
			t.Fatalf("canceled request %d answered %d, want 499: %s", i, rec.Code, rec.Body.String())
		}
	}
	if got := svc.canceled.Load(); got != flood {
		t.Fatalf("canceled counter = %d, want %d", got, flood)
	}
	if got := svc.errors.Load(); got != 0 {
		t.Fatalf("error counter moved on a canceled flood: %d", got)
	}
	// The gate saw no observations at all: no latency samples, no
	// errors, so its windowed pressure stays exactly idle.
	if score := gate.LoadScore(); score != 0 {
		t.Fatalf("gate load score %v after canceled flood, want 0", score)
	}
	for _, snap := range gate.Snapshots() {
		if snap.Shed != 0 {
			t.Fatalf("gate shed %d of tenant %s's requests during a canceled flood", snap.Shed, snap.Tenant)
		}
	}
	var sb strings.Builder
	if err := svc.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), fmt.Sprintf("yala_client_canceled_total %d", flood)) {
		t.Fatalf("exposition missing the canceled counter:\n%s", sb.String())
	}
}
