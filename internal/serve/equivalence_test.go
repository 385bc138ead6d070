package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/tenant"
	"repro/internal/wire"
)

// equivOutcome is what one request answered, in a transport-neutral
// shape: the /v2 JSON body and the typed wire frame both reduce to it.
type equivOutcome struct {
	Status     int
	Code       string
	Message    string
	RetryAfter int // whole seconds, rounded up; 0 = no hint
	Results    []equivPrediction
	Errors     []string
	// Raw is the answer as the transport carried it — the JSON body, the
	// frame payload. The transports differ there by construction; it is
	// compared only against a repeat of the same request (stable rows).
	Raw string
}

type equivPrediction struct {
	NF, HW, Backend string
	Flows, PktSize  int
	MTBR            float64
	Solo, Predicted float64
	Bottleneck      string
	PerResource     map[string]float64
}

func predictionOfJSON(r PredictResponse) equivPrediction {
	p := equivPrediction{
		NF: r.NF, HW: r.HW, Backend: string(r.Backend),
		Flows: r.Profile.Flows, PktSize: r.Profile.PktSize,
		Solo: r.SoloPPS, Predicted: r.PredictedPPS, Bottleneck: r.Bottleneck,
	}
	if r.Profile.MTBR != nil {
		p.MTBR = *r.Profile.MTBR
	}
	if len(r.PerResourcePPS) > 0 {
		p.PerResource = r.PerResourcePPS
	}
	return p
}

func predictionOfWire(r wire.PredictResponse) equivPrediction {
	p := equivPrediction{
		NF: r.NF, HW: r.HW, Backend: r.Backend,
		Flows: r.Profile.Flows, PktSize: r.Profile.PktSize,
		Solo: r.SoloPPS, Predicted: r.PredictedPPS, Bottleneck: r.Bottleneck,
	}
	if r.Profile.MTBR != nil {
		p.MTBR = *r.Profile.MTBR
	}
	if len(r.PerResource) > 0 {
		p.PerResource = map[string]float64{}
		for _, rp := range r.PerResource {
			p.PerResource[rp.Resource] = rp.PPS
		}
	}
	return p
}

// equivCounters are the series both front doors must move identically.
// "self" stands for the tenant and the transport the request used, so
// the two sides compare equal when each moved its own.
func equivCounters(t *testing.T, svc *Service, transport, tenantName string) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := svc.Obs().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	read := func(as, name, labels string) {
		v, _ := expValue(exp, name, labels)
		out[as] = v
	}
	for _, verb := range []string{"predict", "compare", "admit", "diagnose", "cluster_run", "ingest"} {
		read("requests verb="+verb, "yala_requests_total", `verb="`+verb+`"`)
	}
	read("request errors", "yala_request_errors_total", "")
	read("client canceled", "yala_client_canceled_total", "")
	read("request seconds count", "yala_request_seconds_count", "")
	read("requests transport=self", "yala_requests_total", `transport="`+transport+`"`)
	other := map[string]string{"http": "wire", "wire": "http"}[transport]
	read("requests transport=other", "yala_requests_total", `transport="`+other+`"`)
	read("tenant self admitted", "yala_tenant_requests_total", `tenant="`+tenantName+`"`)
	for _, reason := range []string{"rate_limited", "overloaded"} {
		// Label blocks render in key order: reason, then tenant.
		read("tenant self shed "+reason, "yala_tenant_shed_total", `reason="`+reason+`",tenant="`+tenantName+`"`)
	}
	return out
}

func equivDelta(before, after map[string]float64) map[string]float64 {
	d := map[string]float64{}
	for k, v := range after {
		if dv := v - before[k]; dv != 0 {
			d[k] = dv
		}
	}
	return d
}

// TestTransportEquivalence drives one request stream — good requests,
// every class of client mistake, a rate-limited tenant, a payload the
// codec cannot parse — through /v2 JSON and through typed yalawire
// frames against one Service, and requires the two front doors to
// answer identically: same result fields, status, error code, message
// and Retry-After, and the same movement of the request, error,
// transport and tenant counters. It is the harness for keeping the
// request lifecycle single: anything a transport does on its own shows
// up here as a divergence.
func TestTransportEquivalence(t *testing.T) {
	// Each transport gets its own tenants, so both see the same bucket
	// history: "open" is unlimited, "capped" allows one request and then
	// refuses for ~100 s.
	reg, err := tenant.Parse([]byte(`{"tenants": [
		{"name": "open-http",   "key": "k-open-http"},
		{"name": "open-wire",   "key": "k-open-wire"},
		{"name": "capped-http", "key": "k-capped-http", "rps": 0.01, "burst": 1},
		{"name": "capped-wire", "key": "k-capped-wire", "rps": 0.01, "burst": 1}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	// The latency objective is out of reach on purpose: a slow first
	// measurement (under -race) must not turn later rows into overload
	// sheds — only the buckets refuse here.
	svc, ts, ws := wireTestServer(t, tenant.NewGate(reg, tenant.GateConfig{P99SLO: time.Hour}))

	mtbr := 3.5
	predict := func(nf, hw, backend string, prof wire.Profile, comps ...string) wire.PredictRequest {
		req := wire.PredictRequest{NF: nf, HW: hw, Backend: backend, Profile: prof}
		for _, c := range comps {
			req.Competitors = append(req.Competitors, wire.Competitor{Name: c})
		}
		return req
	}
	// garbled cuts a valid payload short: a frame the codec rejects.
	garbled := func(b []byte) []byte { return b[:len(b)/2] }

	cases := []struct {
		name   string
		tenant string // "open" or "capped"; "" = an API key nobody issued
		// The same request in both encodings. batch selects
		// :batchPredict / TypeBatch; otherwise the path model comes from
		// reqs[0] and the body is its scenario.
		batch bool
		reqs  []wire.PredictRequest
		// rawJSON / rawFrame replace the encoded request when set.
		rawJSON  string
		rawFrame func([]byte) []byte
		want     int
		// codecMessage: the failure is the codec's own, so the message
		// text is transport-specific by nature.
		codecMessage bool
		// stable: the request is sent again on each transport — a cache
		// hit now — and must answer the very same bytes.
		stable bool
	}{
		{name: "valid predict", tenant: "open", want: 200,
			reqs: []wire.PredictRequest{predict("ACL", "", "fake", wire.Profile{Flows: 1000, PktSize: 256, MTBR: &mtbr}, "NIDS")}},
		{name: "valid predict attributed to several resources, byte for byte", tenant: "open", want: 200, stable: true,
			reqs: []wire.PredictRequest{predict("NIDS", "", "yala", wire.Profile{Flows: 8000}, "FlowMonitor", "ACL")}},
		{name: "valid predict on a hardware class", tenant: "open", want: 200,
			reqs: []wire.PredictRequest{predict("FlowStats", "pensando", "fake", wire.Profile{})}},
		{name: "valid batch", tenant: "open", want: 200, batch: true,
			reqs: []wire.PredictRequest{
				predict("ACL", "", "fake", wire.Profile{}),
				predict("NAT", "pensando", "fake", wire.Profile{Flows: 2000}, "ACL", "NIDS"),
			}},
		{name: "unknown NF", tenant: "open", want: 400,
			reqs: []wire.PredictRequest{predict("NoSuchNF", "", "fake", wire.Profile{})}},
		{name: "out-of-range profile", tenant: "open", want: 400,
			reqs: []wire.PredictRequest{predict("ACL", "", "fake", wire.Profile{Flows: -5})}},
		{name: "unknown backend", tenant: "open", want: 400,
			reqs: []wire.PredictRequest{predict("ACL", "", "magic", wire.Profile{})}},
		{name: "unknown hardware class", tenant: "open", want: 400,
			reqs: []wire.PredictRequest{predict("ACL", "martian", "fake", wire.Profile{})}},
		{name: "batch with a bad element", tenant: "open", want: 400, batch: true,
			reqs: []wire.PredictRequest{
				predict("ACL", "", "fake", wire.Profile{}),
				predict("NoSuchNF", "", "fake", wire.Profile{}),
			}},
		{name: "capped tenant, first request", tenant: "capped", want: 200,
			reqs: []wire.PredictRequest{predict("ACL", "", "fake", wire.Profile{})}},
		{name: "capped tenant, rate limited", tenant: "capped", want: 429,
			reqs: []wire.PredictRequest{predict("ACL", "", "fake", wire.Profile{})}},
		{name: "capped tenant, rate limited batch", tenant: "capped", want: 429, batch: true,
			reqs: []wire.PredictRequest{predict("ACL", "", "fake", wire.Profile{})}},
		{name: "unknown API key", tenant: "", want: 401,
			reqs: []wire.PredictRequest{predict("ACL", "", "fake", wire.Profile{})}},
		{name: "garbled predict payload", tenant: "open", want: 400, codecMessage: true,
			reqs:    []wire.PredictRequest{predict("ACL", "", "fake", wire.Profile{Flows: 1000}, "NIDS")},
			rawJSON: `{"profile":{"flows":1000},"competitors":[{"na`, rawFrame: garbled},
		{name: "garbled batch payload", tenant: "open", want: 400, codecMessage: true, batch: true,
			reqs:    []wire.PredictRequest{predict("ACL", "", "fake", wire.Profile{}), predict("NAT", "", "fake", wire.Profile{})},
			rawJSON: `{"requests":[{"model":"ACL","backend":"fake"},{"mod`, rawFrame: garbled},
	}

	pools := map[string]*wire.Pool{}
	poolFor := func(key string) *wire.Pool {
		if p, ok := pools[key]; ok {
			return p
		}
		p := wire.NewPool(ws.Addr(), key, 1)
		t.Cleanup(p.Close)
		pools[key] = p
		return p
	}

	viaHTTP := func(key string, batch bool, reqs []wire.PredictRequest, rawJSON string) equivOutcome {
		path, body := equivJSONRequest(t, batch, reqs)
		if rawJSON != "" {
			body = rawJSON
		}
		return equivHTTP(t, ts, key, path, body, batch)
	}
	viaWire := func(key string, batch bool, reqs []wire.PredictRequest, rawFrame func([]byte) []byte) equivOutcome {
		typ, payload := wire.TypePredict, wire.AppendPredictRequest(nil, &reqs[0])
		if batch {
			typ, payload = wire.TypeBatch, wire.AppendBatchRequest(nil, &wire.BatchRequest{Requests: reqs})
		}
		if rawFrame != nil {
			payload = rawFrame(payload)
		}
		return equivWire(t, poolFor(key), typ, payload)
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var outs [2]equivOutcome
			var deltas [2]map[string]float64
			for i, transport := range []string{"http", "wire"} {
				name, key := tc.tenant+"-"+transport, "k-"+tc.tenant+"-"+transport
				if tc.tenant == "" {
					name, key = "nobody", "k-never-issued"
				}
				before := equivCounters(t, svc, transport, name)
				if transport == "http" {
					outs[i] = viaHTTP(key, tc.batch, tc.reqs, tc.rawJSON)
				} else {
					outs[i] = viaWire(key, tc.batch, tc.reqs, tc.rawFrame)
				}
				deltas[i] = equivDelta(before, equivCounters(t, svc, transport, name))
				// Refusals name the tenant; each side has its own.
				outs[i].Message = strings.ReplaceAll(outs[i].Message, name, "self")
			}
			raws := [2]string{outs[0].Raw, outs[1].Raw}
			outs[0].Raw, outs[1].Raw = "", ""
			if outs[0].Status != tc.want {
				t.Fatalf("/v2 JSON answered %d, want %d: %+v", outs[0].Status, tc.want, outs[0])
			}
			if tc.codecMessage {
				outs[0].Message, outs[1].Message = "", ""
			}
			if !reflect.DeepEqual(outs[0], outs[1]) {
				t.Errorf("answers diverge:\n  http %+v\n  wire %+v", outs[0], outs[1])
			}
			if !reflect.DeepEqual(deltas[0], deltas[1]) {
				t.Errorf("counter movement diverges:\n  http %v\n  wire %v", deltas[0], deltas[1])
			}
			if tc.want == http.StatusTooManyRequests && deltas[0]["tenant self shed rate_limited"] != 1 {
				t.Errorf("a 429 must count on its tenant's rate_limited shed series: %v", deltas[0])
			}
			if deltas[0]["requests transport=self"] != 1 || deltas[0]["request seconds count"] != 1 {
				t.Errorf("a request must count once on its transport and once in yala_request_seconds: %v", deltas[0])
			}
			if tc.stable {
				if len(outs[1].Results) != 1 || len(outs[1].Results[0].PerResource) < 2 {
					t.Fatalf("a stable row must attribute to several resources to mean anything: %+v", outs[1].Results)
				}
				key := "k-" + tc.tenant + "-"
				for i := 0; i < 20; i++ {
					if again := viaHTTP(key+"http", tc.batch, tc.reqs, tc.rawJSON); again.Raw != raws[0] {
						t.Fatalf("/v2 JSON repeat %d answered different bytes:\n first %s\n   now %s", i, raws[0], again.Raw)
					}
					if again := viaWire(key+"wire", tc.batch, tc.reqs, tc.rawFrame); again.Raw != raws[1] {
						t.Fatalf("wire repeat %d answered different bytes:\n first %x\n   now %x", i, raws[1], again.Raw)
					}
				}
			}
		})
	}
}

// equivJSONRequest renders the request stream's /v2 JSON form.
func equivJSONRequest(t *testing.T, batch bool, reqs []wire.PredictRequest) (path, body string) {
	t.Helper()
	specOf := func(p wire.Profile) ProfileSpec {
		return ProfileSpec{Flows: p.Flows, PktSize: p.PktSize, MTBR: p.MTBR}
	}
	compsOf := func(cs []wire.Competitor) []CompetitorSpec {
		var out []CompetitorSpec
		for _, c := range cs {
			out = append(out, CompetitorSpec{Name: c.Name, Profile: specOf(c.Profile)})
		}
		return out
	}
	modelOf := func(r wire.PredictRequest) string {
		if r.HW != "" {
			return r.NF + "@" + r.HW
		}
		return r.NF
	}
	var v any
	if batch {
		params := batchParamsV2{}
		for _, r := range reqs {
			params.Requests = append(params.Requests, batchItemV2{
				Model: modelOf(r), Backend: r.Backend, Profile: specOf(r.Profile), Competitors: compsOf(r.Competitors),
			})
		}
		path, v = "/v2/models:batchPredict", params
	} else {
		r := reqs[0]
		path = "/v2/models/" + modelOf(r) + "/" + r.Backend + ":predict"
		v = predictParamsV2{Profile: specOf(r.Profile), Competitors: compsOf(r.Competitors)}
	}
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return path, string(data)
}

func equivHTTP(t *testing.T, ts *httptest.Server, key, path, body string, batch bool) equivOutcome {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := equivOutcome{Status: resp.StatusCode, Raw: string(data)}
	if resp.StatusCode != http.StatusOK {
		var env api.ErrorBody
		if err := json.Unmarshal(data, &env); err != nil || env.Error.RequestID == "" {
			t.Fatalf("%s: %d body %q is not the /v2 envelope with a request ID", path, resp.StatusCode, data)
		}
		out.Code, out.Message = env.Error.Code, env.Error.Message
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if out.RetryAfter, err = strconv.Atoi(ra); err != nil {
				t.Fatalf("Retry-After %q: %v", ra, err)
			}
		}
		return out
	}
	if batch {
		var br BatchResponse
		if err := json.Unmarshal(data, &br); err != nil {
			t.Fatal(err)
		}
		for _, r := range br.Responses {
			out.Results = append(out.Results, predictionOfJSON(r))
		}
		out.Errors = br.Errors
		return out
	}
	var pr PredictResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	out.Results = []equivPrediction{predictionOfJSON(pr)}
	return out
}

func equivWire(t *testing.T, pool *wire.Pool, typ byte, payload []byte) equivOutcome {
	t.Helper()
	out := equivOutcome{Status: http.StatusOK}
	err := pool.Do(context.Background(), typ, payload, func(f wire.Frame) error {
		out.Raw = string(f.Payload)
		switch f.Type {
		case wire.TypePredictResp:
			r, err := wire.DecodePredictResponse(f.Payload)
			out.Results = []equivPrediction{predictionOfWire(r)}
			return err
		case wire.TypeBatchResp:
			br, err := wire.DecodeBatchResponse(f.Payload)
			for _, r := range br.Responses {
				out.Results = append(out.Results, predictionOfWire(r))
			}
			out.Errors = br.Errors
			return err
		case wire.TypeError:
			ef, err := wire.DecodeError(f.Payload)
			if err == nil && ef.RequestID == "" {
				err = fmt.Errorf("error frame %+v carries no request ID", ef)
			}
			out.Status, out.Code, out.Message = ef.Status, ef.Code, ef.Message
			out.RetryAfter = int(math.Ceil(ef.RetryAfterSec))
			return err
		}
		return fmt.Errorf("unexpected frame type %d", f.Type)
	})
	if err != nil {
		t.Fatalf("wire exchange: %v", err)
	}
	return out
}

// expValue returns the value of the first sample named name whose label
// block contains labelSubstr (empty matches any), and whether one was
// found.
func expValue(e *obs.Exposition, name, labelSubstr string) (float64, bool) {
	for _, s := range e.Samples {
		if s.Name == name && strings.Contains(s.Labels, labelSubstr) {
			return s.Value, true
		}
	}
	return 0, false
}
