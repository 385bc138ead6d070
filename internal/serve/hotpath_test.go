package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/israce"
	"repro/internal/obs"
	"repro/internal/wire"
)

// TestPredictOnHitAllocs gates the response-cache hit path: a warm
// PredictOn renders its key into a stack buffer and looks it up as
// bytes, so it allocates nothing — whatever order the request names
// its competitors in. The budget of one is headroom for the runtime,
// not for a fmt call.
func TestPredictOnHitAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := testService(t)
	ctx := context.Background()
	for _, comps := range [][]CompetitorSpec{
		nil,
		{{Name: "ACL", Profile: ProfileSpec{Flows: 8000, MTBR: wire.F64(0.1)}}},
		{{Name: "NIDS"}, {Name: "ACL", Profile: ProfileSpec{Flows: 9000}}, {Name: "ACL", Profile: ProfileSpec{Flows: 10000}}},
	} {
		req := PredictRequest{NF: "FlowStats", Profile: ProfileSpec{Flows: 64000, PktSize: 512}, Competitors: comps, Backend: "fake"}
		want, err := s.PredictOn(ctx, "", req)
		if err != nil {
			t.Fatal(err)
		}
		hits := s.cache.Hits()
		got := testing.AllocsPerRun(1000, func() {
			if resp, err := s.PredictOn(ctx, "", req); err != nil || resp.PredictedPPS != want.PredictedPPS {
				t.Fatalf("warm PredictOn: %+v, err %v", resp, err)
			}
		})
		if s.cache.Hits()-hits < 1000 {
			t.Fatalf("%d competitors: the measured calls were not cache hits", len(comps))
		}
		if got > 1 {
			t.Errorf("%d competitors: a cache hit allocates %.2f times, want ≤ 1", len(comps), got)
		}
	}
}

// wireRaw sends one frame and returns a copy of the answer's payload.
func wireRaw(t *testing.T, pool *wire.Pool, typ, want byte, payload []byte) []byte {
	t.Helper()
	var raw []byte
	err := pool.Do(context.Background(), typ, payload, func(f wire.Frame) error {
		if f.Type != want {
			return fmt.Errorf("answered with frame type %d, want %d", f.Type, want)
		}
		raw = append([]byte(nil), f.Payload...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestWireHitBytesStable: one cached answer is the same bytes every
// time it crosses the wire — per-resource rows in resource-name order,
// on the typed-frame and the batch path alike. (They used to be emitted
// in map order, so a byte-level golden, a replay diff or a content hash
// of the payload saw a different answer on every hit.)
func TestWireHitBytesStable(t *testing.T) {
	_, _, ws := wireTestServer(t, nil)
	pool := wire.NewPool(ws.Addr(), "", 1)
	defer pool.Close()
	req := wire.PredictRequest{NF: "NIDS", Backend: "yala", Profile: wire.Profile{Flows: 8000},
		Competitors: []wire.Competitor{{Name: "FlowMonitor"}, {Name: "ACL"}}}
	single := wire.AppendPredictRequest(nil, &req)
	batch := wire.AppendBatchRequest(nil, &wire.BatchRequest{Requests: []wire.PredictRequest{req, {NF: "ACL", Backend: "fake"}, req}})

	first := wireRaw(t, pool, wire.TypePredict, wire.TypePredictResp, single)
	resp, err := wire.DecodePredictResponse(first)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.PerResource) < 2 {
		t.Fatalf("the scenario must attribute to several resources to mean anything, got %+v", resp.PerResource)
	}
	if !sort.SliceIsSorted(resp.PerResource, func(i, j int) bool { return resp.PerResource[i].Resource < resp.PerResource[j].Resource }) {
		t.Errorf("per-resource rows not in resource order: %+v", resp.PerResource)
	}
	firstBatch := wireRaw(t, pool, wire.TypeBatch, wire.TypeBatchResp, batch)
	for i := 0; i < 200; i++ {
		if got := wireRaw(t, pool, wire.TypePredict, wire.TypePredictResp, single); !bytes.Equal(got, first) {
			t.Fatalf("hit %d of one cache entry encoded differently:\n first %x\n   now %x", i, first, got)
		}
		if got := wireRaw(t, pool, wire.TypeBatch, wire.TypeBatchResp, batch); !bytes.Equal(got, firstBatch) {
			t.Fatalf("batch %d over cached entries encoded differently:\n first %x\n   now %x", i, firstBatch, got)
		}
	}
}

// TestWireBatchStagesOnce: a 64-element TypeBatch fans its elements out
// on one request context — 64 concurrent "cache" spans, some "predict"
// — and still ends as one request: one observation in the request
// histogram and one per stage, every element answered. Run with -race.
func TestWireBatchStagesOnce(t *testing.T) {
	svc, _, ws := wireTestServer(t, nil)
	pool := wire.NewPool(ws.Addr(), "", 1)
	defer pool.Close()
	var breq wire.BatchRequest
	for i := 0; i < 64; i++ {
		breq.Requests = append(breq.Requests, wire.PredictRequest{NF: []string{"ACL", "NAT", "NIDS", "FlowStats"}[i%4], Backend: "fake",
			Profile: wire.Profile{Flows: 1000 * (1 + i%8)}, Competitors: []wire.Competitor{{Name: "NIDS"}, {Name: "ACL"}}[:i%3]})
	}
	counts := func() map[string]float64 {
		var sb strings.Builder
		if err := svc.Obs().WriteProm(&sb); err != nil {
			t.Fatal(err)
		}
		exp, err := obs.ParseExposition(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		out["request"], _ = expValue(exp, "yala_request_seconds_count", "")
		for _, st := range stageNames {
			out[st], _ = expValue(exp, "yala_stage_seconds_count", `stage="`+st+`"`)
			out[st+" sum"], _ = expValue(exp, "yala_stage_seconds_sum", `stage="`+st+`"`)
		}
		return out
	}
	for round, wantPredict := range []float64{1, 0} { // cold: misses span "predict"; warm: all hits
		before := counts()
		raw := wireRaw(t, pool, wire.TypeBatch, wire.TypeBatchResp, wire.AppendBatchRequest(nil, &breq))
		resp, err := wire.DecodeBatchResponse(raw)
		if err != nil || len(resp.Responses) != 64 || len(resp.Errors) != 0 {
			t.Fatalf("round %d: %d responses, errors %v, err %v", round, len(resp.Responses), resp.Errors, err)
		}
		for i, r := range resp.Responses {
			if r.NF != breq.Requests[i].NF || r.PredictedPPS <= 0 {
				t.Fatalf("round %d: element %d answered %+v", round, i, r)
			}
		}
		after := counts()
		for name, want := range map[string]float64{"request": 1, "decode": 1, "cache": 1, "encode": 1, "predict": wantPredict} {
			if got := after[name] - before[name]; got != want {
				t.Errorf("round %d: %s observed %v times for one batch, want %v", round, name, got, want)
			}
		}
		if after["cache sum"] <= before["cache sum"] {
			t.Errorf("round %d: 64 cache spans added no time to the stage", round)
		}
	}
}

// TestRequestIDFormat pins the minted request IDs — clients quote them
// in bug reports and logs are grepped for them — to the "%s-%06d" text
// they have always had: zero-padded to six digits, never truncated
// past it; and an ID the client sent still wins on both transports.
func TestRequestIDFormat(t *testing.T) {
	for n, want := range map[uint64]string{1: "wire-000001", 42: "wire-000042", 999999: "wire-999999", 1000000: "wire-1000000", 1<<64 - 1: "wire-18446744073709551615"} {
		if got := requestID(true, n); got != want {
			t.Errorf("requestID(wire, %d) = %q, want %q", n, got, want)
		}
	}
	for _, n := range []uint64{1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 99999, 100000, 999999, 1000000, 1234567, 1e12} {
		for _, d := range []uint64{0, 1} {
			if got, want := requestID(false, n+d), fmt.Sprintf("req-%06d", n+d); got != want {
				t.Errorf("requestID(http, %d) = %q, want %q", n+d, got, want)
			}
			if got, want := requestID(true, n+d), fmt.Sprintf("wire-%06d", n+d); got != want {
				t.Errorf("requestID(wire, %d) = %q, want %q", n+d, got, want)
			}
		}
	}

	_, ts, ws := wireTestServer(t, nil)
	pool := wire.NewPool(ws.Addr(), "", 1)
	defer pool.Close()
	send := func(transport, sent string) string {
		t.Helper()
		if transport == "http" {
			req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v2/models", nil)
			req.Header.Set("X-Request-Id", sent)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.Header.Get("X-Request-Id")
		}
		raw := wireRaw(t, pool, wire.TypeCall, wire.TypeCallResp,
			wire.AppendCall(nil, &wire.Call{Method: http.MethodGet, URI: "/v2/models", RequestID: sent}))
		resp, err := wire.DecodeCallResp(raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range resp.Headers {
			if kv.Key == "X-Request-Id" {
				return kv.Value
			}
		}
		return ""
	}
	for transport, minted := range map[string]string{"http": `^req-\d{6,}$`, "TypeCall": `^wire-\d{6,}$`} {
		if got := send(transport, "client-chose-this"); got != "client-chose-this" {
			t.Errorf("%s: sent X-Request-Id answered as %q", transport, got)
		}
		if got := send(transport, strings.Repeat("x", 65)); !regexp.MustCompile(minted).MatchString(got) {
			t.Errorf("%s: an oversized ID must be replaced by a minted one, got %q", transport, got)
		}
	}
	// A typed frame has no way to send an ID: its error frame names the
	// minted one.
	raw := wireRaw(t, pool, wire.TypePredict, wire.TypeError, wire.AppendPredictRequest(nil, &wire.PredictRequest{NF: "NoSuchNF"}))
	if ef, err := wire.DecodeError(raw); err != nil || !regexp.MustCompile(`^wire-\d{6,}$`).MatchString(ef.RequestID) {
		t.Errorf("typed error frame request ID %q, err %v", ef.RequestID, err)
	}
}
