package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/nicsim"
	"repro/internal/placement"
	"repro/internal/slomo"
	"repro/internal/testbed"
	"repro/internal/traffic"
	"repro/internal/wire"
	"repro/pkg/yalaclient"
)

func testService(t *testing.T) *Service {
	t.Helper()
	s := NewService(ServiceConfig{
		Registry: testRegistryConfig(t),
		Workers:  4,
	})
	t.Cleanup(s.Close)
	return s
}

// TestPredictCacheMatchesDirectPredictor is the cache-correctness
// contract: a cached response must be identical — byte-for-byte once
// marshaled — to both the first (uncached) response and to the output of
// the underlying core predictor invoked directly on the same persisted
// model and the same deterministic measurements.
func TestPredictCacheMatchesDirectPredictor(t *testing.T) {
	s := testService(t)
	req := PredictRequest{
		NF:      "FlowStats",
		Profile: ProfileSpec{Flows: 32000, PktSize: 512, MTBR: wire.F64(600)},
		Competitors: []CompetitorSpec{
			{Name: "ACL"},
			{Name: "NAT", Profile: ProfileSpec{Flows: 8000}},
		},
	}
	first, err := s.PredictOn(context.Background(), "", req)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.cache.Stats(); st.Hits != 0 {
		t.Fatalf("first request should miss, stats %+v", st)
	}
	second, err := s.PredictOn(context.Background(), "", req)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.cache.Stats(); st.Hits != 1 {
		t.Fatalf("second request should hit, stats %+v", st)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached response differs:\nfirst  %+v\nsecond %+v", first, second)
	}
	b1, _ := json.Marshal(first)
	b2, _ := json.Marshal(second)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cached response not byte-identical:\n%s\n%s", b1, b2)
	}

	// Direct path: load the persisted model the service trained, rebuild
	// the competitors from the same deterministic fresh-testbed solo
	// measurements, and predict.
	cfg := s.cfg.Registry.withDefaults()
	model, err := core.LoadModelFile(filepath.Join(cfg.Dir, "FlowStats.yala.json"))
	if err != nil {
		t.Fatal(err)
	}
	var comps []core.Competitor
	for _, spec := range req.Competitors {
		m, err := testbed.New(nicsim.BlueField2(), cfg.Seed).SoloNF(spec.Name, profileOf(spec.Profile))
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, core.CompetitorFromMeasurement(m))
	}
	direct := model.Predict(profileOf(req.Profile), comps)
	if second.PredictedPPS != direct.Throughput || second.SoloPPS != direct.Solo {
		t.Fatalf("cached response diverges from direct predictor: served (%.6f, %.6f), direct (%.6f, %.6f)",
			second.PredictedPPS, second.SoloPPS, direct.Throughput, direct.Solo)
	}
	if second.Bottleneck != direct.Bottleneck.String() {
		t.Fatalf("bottleneck %q, direct %q", second.Bottleneck, direct.Bottleneck)
	}
	for res, want := range direct.PerResource {
		if got := second.PerResourcePPS[res.String()]; got != want {
			t.Fatalf("per-resource %v: served %.6f, direct %.6f", res, got, want)
		}
	}
}

// TestSLOMOBackendMatchesDirectPredictor does the same for the baseline.
func TestSLOMOBackendMatchesDirectPredictor(t *testing.T) {
	s := testService(t)
	req := PredictRequest{
		NF:          "ACL",
		Profile:     ProfileSpec{Flows: 64000},
		Competitors: []CompetitorSpec{{Name: "FlowStats"}},
		Backend:     "slomo",
	}
	got, err := s.PredictOn(context.Background(), "", req)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := s.PredictOn(context.Background(), "", req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cached) {
		t.Fatalf("cached slomo response differs: %+v vs %+v", got, cached)
	}

	cfg := s.cfg.Registry.withDefaults()
	model, err := slomo.LoadModelFile(filepath.Join(cfg.Dir, "ACL.slomo.json"))
	if err != nil {
		t.Fatal(err)
	}
	var agg nicsim.Counters
	for _, spec := range req.Competitors {
		m, err := testbed.New(nicsim.BlueField2(), cfg.Seed).SoloNF(spec.Name, profileOf(spec.Profile))
		if err != nil {
			t.Fatal(err)
		}
		agg.Add(m.Counters)
	}
	solo, err := testbed.New(nicsim.BlueField2(), cfg.Seed).SoloNF(req.NF, profileOf(req.Profile))
	if err != nil {
		t.Fatal(err)
	}
	direct := model.PredictExtrapolated(agg, solo.Throughput)
	if got.PredictedPPS != direct {
		t.Fatalf("served %.6f, direct slomo %.6f", got.PredictedPPS, direct)
	}
}

// TestCompare checks both predictors answer the same scenario and ground
// truth is attached on request.
func TestCompare(t *testing.T) {
	s := testService(t)
	resp, err := s.CompareOn(context.Background(), "", CompareRequest{
		NF:          "FlowStats",
		Competitors: []CompetitorSpec{{Name: "ACL"}},
		GroundTruth: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Yala.PredictedPPS <= 0 || resp.SLOMO.PredictedPPS <= 0 {
		t.Fatalf("non-positive predictions: %+v", resp)
	}
	if resp.MeasuredPPS <= 0 {
		t.Fatalf("ground truth missing: %+v", resp)
	}
	if resp.Yala.Backend != string(BackendYala) || resp.SLOMO.Backend != string(BackendSLOMO) {
		t.Fatalf("backend labels wrong: %+v", resp)
	}
}

// TestAdmitMatchesPlacementFeasibility checks Admit agrees with the
// placement package invoked directly with the same models and testbed
// seed, and that the trivial SLA cases come out right.
func TestAdmitMatchesPlacementFeasibility(t *testing.T) {
	s := testService(t)
	residents := []ColoNF{{Name: "ACL", SLA: 0.15}}
	candidate := ColoNF{Name: "FlowStats", SLA: 0.15}
	resp, err := s.AdmitOn(context.Background(), "", AdmitRequest{Residents: residents, Candidate: candidate})
	if err != nil {
		t.Fatal(err)
	}

	cfg := s.cfg.Registry.withDefaults()
	sim := placement.NewSimulator(testbed.New(nicsim.BlueField2(), cfg.Seed))
	for _, name := range []string{"ACL", "FlowStats"} {
		m, err := s.Registry().Model("yala", name)
		if err != nil {
			t.Fatal(err)
		}
		sim.SetModel("yala", name, m)
	}
	// Seed solos exactly as the service does (fresh testbed per
	// measurement) so the decisions must match, not merely tend to.
	for _, name := range []string{"ACL", "FlowStats"} {
		m, err := testbed.New(nicsim.BlueField2(), cfg.Seed).SoloNF(name, traffic.Default)
		if err != nil {
			t.Fatal(err)
		}
		sim.SeedSolo(placement.Arrival{Name: name, Profile: traffic.Default}, m)
	}
	want, err := sim.Feasible(
		[]placement.Arrival{{Name: "ACL", Profile: traffic.Default, SLA: 0.15}},
		placement.Arrival{Name: "FlowStats", Profile: traffic.Default, SLA: 0.15},
		placement.YalaAware,
	)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Admit != want {
		t.Fatalf("Admit = %v, placement.Feasible = %v", resp.Admit, want)
	}

	// An empty NIC and a 100%-drop SLA always admits.
	free, err := s.AdmitOn(context.Background(), "", AdmitRequest{Candidate: ColoNF{Name: "ACL", SLA: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !free.Admit {
		t.Fatal("empty NIC with SLA=1 must admit")
	}

	// Core capacity rejects before any SLA prediction: BlueField-2 has 8
	// cores at 2 per NF, so a 4-resident NIC cannot take a fifth even
	// with maximally loose SLAs.
	var full []ColoNF
	for i := 0; i < 4; i++ {
		full = append(full, ColoNF{Name: "ACL", SLA: 1})
	}
	over, err := s.AdmitOn(context.Background(), "", AdmitRequest{Residents: full, Candidate: ColoNF{Name: "ACL", SLA: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if over.Admit || over.Reason != "cores" {
		t.Fatalf("over-capacity NIC admitted: %+v", over)
	}
}

// TestHTTPRoundTrip runs the full stack: HTTP server, the public SDK
// against /v2, and a small load-generation run that must complete
// without errors.
func TestHTTPRoundTrip(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := yalaclient.New(srv.URL)
	ctx := context.Background()

	direct, err := s.PredictOn(ctx, "", PredictRequest{NF: "ACL", Competitors: []CompetitorSpec{{Name: "FlowStats"}}})
	if err != nil {
		t.Fatal(err)
	}
	viaHTTP, err := client.Predict(ctx, yalaclient.ModelID{NF: "ACL"}, "",
		yalaclient.PredictParams{Competitors: []yalaclient.Competitor{{Name: "FlowStats"}}})
	if err != nil {
		t.Fatal(err)
	}
	// The SDK's wire types mirror the service's exactly, so the
	// marshaled forms must be byte-identical.
	directJSON, _ := json.Marshal(direct)
	viaJSON, _ := json.Marshal(viaHTTP)
	if !bytes.Equal(directJSON, viaJSON) {
		t.Fatalf("HTTP response differs from direct call:\n%s\n%s", directJSON, viaJSON)
	}

	if _, err := client.Diagnose(ctx, yalaclient.ModelID{NF: "FlowStats"},
		yalaclient.PredictParams{Competitors: []yalaclient.Competitor{{Name: "ACL"}}}); err != nil {
		t.Fatal(err)
	}

	// Unknown NFs surface as a structured client error, not a hang or a
	// 500-shaped mystery.
	_, err = client.Predict(ctx, yalaclient.ModelID{NF: "NoSuchNF"}, "", yalaclient.PredictParams{})
	var apiErr *yalaclient.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 400 || apiErr.Code != "invalid_argument" {
		t.Fatalf("unknown NF error = %v, want invalid_argument APIError", err)
	}

	rep, err := loadgen.Run(loadgen.Config{
		URL:          srv.URL,
		Workers:      4,
		Requests:     200,
		Seed:         7,
		NFs:          []string{"FlowStats", "ACL"},
		Profiles:     2,
		DiagnoseFrac: 0.1,
		AdmitFrac:    0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("loadgen saw %d errors", rep.Errors)
	}
	if rep.Requests != 200 {
		t.Fatalf("loadgen issued %d requests, want 200", rep.Requests)
	}
	// The /metrics scrapes around the run attribute server-side time to
	// pipeline stages; a run this size must have recorded decode and
	// cache spans (every request decodes and consults the cache).
	stages := map[string]loadgen.StageStat{}
	for _, st := range rep.Stages {
		stages[st.Stage] = st
	}
	for _, want := range []string{"decode", "cache"} {
		if stages[want].Count == 0 {
			t.Fatalf("stage breakdown missing %q spans: %+v", want, rep.Stages)
		}
	}

	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Hits == 0 {
		t.Fatalf("expected warm-cache hits after loadgen, stats %+v", stats.Cache)
	}
	if stats.Requests["predict"] == 0 {
		t.Fatalf("stats did not count predicts: %+v", stats.Requests)
	}
}

// TestPredictBatch checks batch elements match single-request answers
// and that a malformed element fails the whole batch as a bad request
// (the HTTP layer turns that into a 400) naming the offending index.
func TestPredictBatch(t *testing.T) {
	s := testService(t)
	good := PredictRequest{NF: "ACL", Competitors: []CompetitorSpec{{Name: "FlowStats"}}}
	single, err := s.PredictOn(context.Background(), "", good)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := s.predictBatch(context.Background(), []PredictRequest{good, good})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch.Responses[0], single) || !reflect.DeepEqual(batch.Responses[1], single) {
		t.Fatalf("batch elements differ from single response: %+v", batch.Responses)
	}
	if len(batch.Errors) != 0 {
		t.Fatalf("good batch reported errors: %+v", batch.Errors)
	}
	_, err = s.predictBatch(context.Background(), []PredictRequest{good, {NF: "NoSuchNF"}})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("batch with unknown NF returned %v, want ErrBadRequest", err)
	}
	if err == nil || !strings.Contains(err.Error(), "requests[1]") {
		t.Fatalf("batch error %v does not name the offending element", err)
	}
}

// TestReloadTargetedEviction is the over-eviction regression test:
// Service.Reload must drop every memoized response computed with the
// reloaded (backend, NF) model — otherwise scenarios answered before
// the reload would keep serving the old model's predictions — while
// every unrelated entry keeps serving warm. A single-model push used to
// Flush the whole cache, cold-starting every other (backend, NF, hw)
// key on the server.
func TestReloadTargetedEviction(t *testing.T) {
	s := testService(t)
	ctx := context.Background()

	// Warm one entry per kind: predictions for ACL under both backends
	// and for FlowStats under yala, a ground-truth measurement for ACL,
	// and admissions naming ACL (as resident) and not naming it.
	if _, err := s.PredictOn(ctx, "", PredictRequest{NF: "ACL"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PredictOn(ctx, "", PredictRequest{NF: "ACL", Backend: "slomo"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PredictOn(ctx, "", PredictRequest{NF: "FlowStats", Competitors: []CompetitorSpec{{Name: "ACL"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CompareOn(ctx, "", CompareRequest{NF: "ACL", GroundTruth: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AdmitOn(ctx, "", AdmitRequest{
		Residents: []ColoNF{{Name: "ACL", SLA: 0.5}},
		Candidate: ColoNF{Name: "FlowStats", SLA: 0.5},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AdmitOn(ctx, "", AdmitRequest{Candidate: ColoNF{Name: "FlowStats", SLA: 0.5}}); err != nil {
		t.Fatal(err)
	}

	prof := profileOf(ProfileSpec{})
	has := func(key string) bool {
		_, ok := s.cache.getQuiet(key)
		return ok
	}
	aclYala := predictKey(BackendYala, "", "ACL", prof, nil)
	aclSLOMO := predictKey(BackendSLOMO, "", "ACL", prof, nil)
	fsYala := predictKey(BackendYala, "", "FlowStats", prof, []CompetitorSpec{{Name: "ACL"}})
	aclMeasure := measureKey("", "ACL", prof, nil)
	for _, key := range []string{aclYala, aclSLOMO, fsYala, aclMeasure} {
		if !has(key) {
			t.Fatalf("expected %q cached before reload", key)
		}
	}
	admitEntries := func() int {
		n := 0
		for i := range s.cache.shards {
			sh := &s.cache.shards[i]
			sh.mu.Lock()
			for key := range sh.items {
				if strings.HasPrefix(key, "admit|") {
					n++
				}
			}
			sh.mu.Unlock()
		}
		return n
	}
	if n := admitEntries(); n != 2 {
		t.Fatalf("expected 2 admit entries before reload, have %d", n)
	}

	before := s.cache.Len()
	s.Reload(BackendYala, "ACL")

	// Evicted: the yala ACL prediction, ACL's ground-truth measurement,
	// and the admission whose colo list names ACL.
	if has(aclYala) {
		t.Fatal("yala ACL prediction survived its own reload")
	}
	if has(aclMeasure) {
		t.Fatal("ACL measurement survived reload")
	}
	if n := admitEntries(); n != 1 {
		t.Fatalf("expected only the ACL-free admit entry to survive, have %d", n)
	}
	// Survivors: the same NF under the other backend, and the other NF
	// under the reloaded backend — even with ACL as a competitor, since
	// competitors contribute measurements, not models.
	if !has(aclSLOMO) {
		t.Fatal("slomo ACL prediction evicted by a yala reload")
	}
	if !has(fsYala) {
		t.Fatal("yala FlowStats prediction evicted by an ACL reload")
	}
	if after := s.cache.Len(); after >= before {
		t.Fatalf("reload evicted nothing (%d -> %d entries)", before, after)
	}

	// The evicted scenario recomputes on demand with the fresh model.
	if _, err := s.PredictOn(ctx, "", PredictRequest{NF: "ACL"}); err != nil {
		t.Fatal(err)
	}
	if !has(aclYala) {
		t.Fatal("reloaded scenario did not re-cache")
	}
}

// TestReloadAffects pins the cache-key parsing behind targeted reload
// eviction, including the boundary cases the key grammar makes easy to
// get wrong: NF names that are substrings of other NF names, hardware
// qualifiers, and profile renderings containing separators.
func TestReloadAffects(t *testing.T) {
	prof := profileOf(ProfileSpec{Flows: 32000})
	cases := []struct {
		key         string
		backend, nf string
		want        bool
		why         string
	}{
		{predictKey(BackendYala, "", "ACL", prof, nil), "yala", "ACL", true, "default-hw predict of the reloaded model"},
		{predictKey(BackendYala, "bluefield2", "ACL", prof, nil), "yala", "ACL", true, "reload spans hardware classes"},
		{predictKey(BackendSLOMO, "", "ACL", prof, nil), "yala", "ACL", false, "other backend's model untouched"},
		{predictKey(BackendYala, "", "NAT", prof, []CompetitorSpec{{Name: "ACL"}}), "yala", "ACL", false, "competitors contribute measurements, not models"},
		{measureKey("", "ACL", prof, nil), "yala", "ACL", true, "target measurement follows its NF"},
		{measureKey("", "NAT", prof, []CompetitorSpec{{Name: "ACL"}}), "yala", "ACL", false, "competitor in a measurement is model-free"},
		{"admit|yala||ACL@(32000, 512, 600)~0.5|cand=NAT@(32000, 512, 600)~0.5", "yala", "ACL", true, "resident named in colo list"},
		{"admit|yala||ACL@(32000, 512, 600)~0.5|cand=NAT@(32000, 512, 600)~0.5", "yala", "NAT", true, "candidate named after cand="},
		{"admit|yala||SNAT@(32000, 512, 600)~0.5|cand=SNAT@(32000, 512, 600)~0.5", "yala", "NAT", false, "NAT must not match inside SNAT"},
		{"admit|slomo||ACL@(32000, 512, 600)~0.5|cand=NAT@(32000, 512, 600)~0.5", "yala", "ACL", false, "admit under the other backend"},
	}
	for _, tc := range cases {
		if got := reloadAffects(tc.key, tc.backend, tc.nf); got != tc.want {
			t.Errorf("reloadAffects(%q, %s, %s) = %v, want %v (%s)", tc.key, tc.backend, tc.nf, got, tc.want, tc.why)
		}
	}
}

// TestServiceClosedRejects verifies requests after Close fail cleanly.
func TestServiceClosedRejects(t *testing.T) {
	s := NewService(ServiceConfig{Registry: testRegistryConfig(t), Workers: 1})
	s.Close()
	if _, err := s.PredictOn(context.Background(), "", PredictRequest{NF: "ACL"}); err == nil {
		t.Fatal("expected error from closed service")
	}
}

// TestSoloMeasureMetric: yala_solo_measure_seconds counts the solo
// simulations actually run — one per never-seen (competitor, profile),
// none for a memoized one, and none for the target itself, whose own solo
// the yala backend never asks for — and yala_solo_measure_flows_total
// adds up the flows those simulations measured.
func TestSoloMeasureMetric(t *testing.T) {
	s := testService(t)
	ctx := context.Background()
	predict := func(nf string, comps ...CompetitorSpec) {
		t.Helper()
		if _, err := s.PredictOn(ctx, "", PredictRequest{NF: nf, Competitors: comps}); err != nil {
			t.Fatal(err)
		}
	}
	simulations := s.soloSeconds.Count
	novel := CompetitorSpec{Name: "NAT", Profile: ProfileSpec{Flows: 7919, PktSize: 701, MTBR: wire.F64(123)}}

	predict("FlowStats")
	if got := simulations(); got != 0 {
		t.Fatalf("competitor-free predict ran %d solo simulations, want 0", got)
	}
	predict("FlowStats", novel)
	if got := simulations(); got != 1 {
		t.Fatalf("predict beside a never-seen competitor profile: %d solo simulations, want 1", got)
	}
	predict("FlowStats", novel)
	if got := simulations(); got != 1 {
		t.Fatalf("the same request again: %d solo simulations, want 1", got)
	}
	predict("ACL", novel)
	if got := simulations(); got != 1 {
		t.Fatalf("a second target beside the memoized competitor: %d solo simulations, want 1", got)
	}
	if s.soloSeconds.Sum() <= 0 {
		t.Fatal("solo simulation recorded no time")
	}
	if got := s.soloFlows.Load(); got != 7919 {
		t.Fatalf("yala_solo_measure_flows_total = %d after one 7919-flow simulation", got)
	}
	second := CompetitorSpec{Name: "NAT", Profile: ProfileSpec{Flows: 5000, PktSize: 701, MTBR: wire.F64(123)}}
	for _, pass := range []string{"a never-seen 5000-flow competitor", "the same competitor again"} {
		predict("FlowStats", second)
		if got := s.soloFlows.Load(); got != 7919+5000 {
			t.Fatalf("yala_solo_measure_flows_total = %d after %s, want %d", got, pass, 7919+5000)
		}
	}
	var sb strings.Builder
	if err := s.Obs().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"yala_solo_measure_seconds_count 2\n", "yala_solo_measure_flows_total 12919\n"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, sb.String())
		}
	}
}
