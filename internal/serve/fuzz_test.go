package serve

import (
	"encoding/base64"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/wire"
)

// FuzzProfileSpecValidate drives arbitrary bytes through both routes a
// wire profile takes into the service: JSON decoding into a ProfileSpec,
// and a typed TypePredict frame decoded as a connection decodes it,
// whose profiles carry MTBR as raw float64 bits (NaN and infinities
// included), then validateScenario. Neither route may panic, and every
// profile that validates must resolve inside the validated bounds (or to
// the defaults for absent attributes) and round-trip through SpecOf
// exactly (the property the cache keys and trace schema rely on).
func FuzzProfileSpecValidate(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"flows":16000,"pktsize":1500,"mtbr":600}`,
		`{"flows":-1}`,
		`{"pktsize":9217}`,
		`{"mtbr":0}`,
		`{"mtbr":1e300}`,
		`{"flows":1000000,"pktsize":9216,"mtbr":100000}`,
		`{"mtbr":null}`,
		`[1,2]`,
		`"nope"`,
	} {
		f.Add([]byte(seed))
	}
	for _, mtbr := range []float64{600, 0, -1, 1e300, math.Inf(1), math.NaN()} {
		p := wire.Profile{Flows: 16000, PktSize: 1500, MTBR: &mtbr}
		f.Add(wire.AppendPredictRequest(nil, &wire.PredictRequest{NF: "ACL", Profile: p}))
		f.Add(wire.AppendPredictRequest(nil, &wire.PredictRequest{NF: "ACL", Competitors: []wire.Competitor{{Name: "NIDS", Profile: p}}}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec ProfileSpec
		if json.Unmarshal(data, &spec) == nil && validateProfile(spec) == nil {
			checkResolved(t, spec)
		}
		req, err := decodePredict(data)
		if err != nil {
			return
		}
		if _, err := validateScenario(req.NF, req.Profile, req.Competitors, req.Backend); err != nil {
			return
		}
		checkResolved(t, req.Profile)
		for _, c := range req.Competitors {
			checkResolved(t, c.Profile)
		}
	})
}

// checkResolved holds a validated spec's resolved profile to the
// validated bounds and to SpecOf∘Profile being the identity.
func checkResolved(t *testing.T, spec ProfileSpec) {
	t.Helper()
	prof := profileOf(spec)
	if prof.Flows <= 0 || prof.Flows > maxProfileFlows || prof.PktSize <= 0 || prof.PktSize > maxProfilePktSize ||
		!(prof.MTBR >= 0 && prof.MTBR <= maxProfileMTBR) {
		t.Fatalf("validated spec %+v resolved out of bounds: %+v", spec, prof)
	}
	// Resolved profiles are fixed points: converting back to the wire
	// form and resolving again must be the identity.
	if got := profileOf(SpecOf(prof)); got != prof {
		t.Fatalf("SpecOf/Profile is not identity: %+v → %+v", prof, got)
	}
}

// FuzzAdmitRequestValidate covers the composite request validator the
// admission path runs before any simulation: arbitrary JSON must never
// panic it.
func FuzzAdmitRequestValidate(f *testing.F) {
	for _, seed := range []string{
		`{"candidate":{"name":"FlowStats","sla":0.1}}`,
		`{"residents":[{"name":"ACL","sla":2}],"candidate":{"name":"NIDS","sla":0.1}}`,
		`{"candidate":{"name":"","sla":-1},"backend":"slomo"}`,
		`{"backend":"wat"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req AdmitRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		_ = req.validate()
	})
}

// FuzzPageToken drives arbitrary page_token values — bytes straight off
// GET /v2/models's query string — through the continuation-token parser:
// it never panics, every token it accepts names an offset ≥ 0, and for
// every offset n ≥ 0 the token the listing hands out parses back to n.
func FuzzPageToken(f *testing.F) {
	f.Add(encodePageToken(2), 2) // a real next-page token
	f.Add("!!", 0)
	f.Add(base64.RawURLEncoding.EncodeToString([]byte("off=-1")), -1)
	f.Add(base64.RawURLEncoding.EncodeToString([]byte("off=99999999999999999999")), math.MaxInt)
	f.Fuzz(func(t *testing.T, tok string, n int) {
		if off, err := decodePageToken(tok); err == nil && off < 0 {
			t.Fatalf("token %q accepted with offset %d", tok, off)
		}
		if n < 0 {
			n = -(n + 1) // every n ≥ 0, math.MaxInt included
		}
		if got, err := decodePageToken(encodePageToken(n)); err != nil || got != n {
			t.Fatalf("offset %d: token %q parses to %d, %v", n, encodePageToken(n), got, err)
		}
	})
}
