package serve

// Serve-layer tests for the online-feedback loop: the /v2/ingest
// endpoint, the shadow-serving isolation guarantee (candidate outputs
// are never returned to clients), and zero-downtime promotion under
// concurrent live load.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/feedback"
	"repro/internal/nf"
)

// driftyBackend is a stub whose trained throughput tracks the training
// NIC's frequency scale — so a feedback-calibrated retrain produces a
// measurably different model, which is exactly what the shadow
// isolation and promotion tests need to tell live from candidate.
type driftyBackend struct{}

type driftyModel struct {
	Name string  `json:"name"`
	PPS  float64 `json:"pps"`
}

func (m driftyModel) NF() string { return m.Name }

func (driftyBackend) Name() string { return "drifty" }

func (driftyBackend) Train(env backend.TrainEnv, name string) (backend.Model, error) {
	if !nf.Known(name) {
		return nil, fmt.Errorf("drifty: unknown NF %q", name)
	}
	scale := env.NIC.FreqScale
	if scale <= 0 {
		scale = 1
	}
	return driftyModel{Name: name, PPS: 1e6 * scale}, nil
}

func (driftyBackend) Predict(m backend.Model, sc backend.Scenario) (backend.Prediction, error) {
	dm, ok := m.(driftyModel)
	if !ok {
		return backend.Prediction{}, fmt.Errorf("drifty: foreign model %T", m)
	}
	return backend.Prediction{
		SoloPPS:      dm.PPS,
		PredictedPPS: dm.PPS / float64(1+len(sc.Competitors)),
	}, nil
}

func (driftyBackend) Save(m backend.Model, path string) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func (driftyBackend) Load(path string) (backend.Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m driftyModel
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	if m.Name == "" || m.PPS <= 0 {
		return nil, fmt.Errorf("drifty: %s is not a drifty model", path)
	}
	return m, nil
}

func init() { backend.Register(driftyBackend{}) }

// driftService builds a service with its own model dir and a feedback
// controller tuned to trip and promote quickly.
func driftService(t *testing.T, synchronous bool) *Service {
	t.Helper()
	cfg := RegistryConfig{
		Dir:   t.TempDir(),
		Seed:  1,
		Train: testTrainConfig(1),
		SLOMO: testSLOMOConfig(1),
	}
	s := NewService(ServiceConfig{
		Registry: cfg,
		Workers:  2,
		Feedback: &feedback.Config{
			WindowSize:        64,
			MinSamples:        8,
			MinPromoteSamples: 3,
			Synchronous:       synchronous,
		},
	})
	t.Cleanup(s.Close)
	return s
}

// driftMeasurements builds n identical measurements for FlowStats/drifty.
func driftMeasurements(pps float64, n int) []IngestMeasurement {
	items := make([]IngestMeasurement, n)
	for i := range items {
		items[i] = IngestMeasurement{
			NF: "FlowStats", Backend: "drifty",
			MeasuredPPS: pps, Source: "rig-0",
		}
	}
	return items
}

// TestIngestEndpoint drives POST /v2/ingest over HTTP: a clean batch
// is fully accepted with nothing quarantined, the counters surface in
// /v2/stats and /metrics, and malformed measurements 400 with a
// per-element error.
func TestIngestEndpoint(t *testing.T) {
	ts := testServer(t)

	res := postAs[IngestResult](t, ts, "/v2/ingest",
		map[string]any{"measurements": []map[string]any{
			{"model": "FlowStats", "backend": "drifty", "measured_pps": 1e6, "source": "rig-1"},
			{"model": "FlowStats", "backend": "drifty", "measured_pps": 9.9e5, "source": "rig-1"},
		}})
	if res.Accepted != 2 || res.Quarantined != 0 {
		t.Fatalf("clean ingest: %+v", res)
	}

	st := getAs[statsV2](t, ts, "/v2/stats")
	if st.Drift.Observations != 2 || st.Drift.Quarantined != 0 {
		t.Fatalf("drift stats after clean ingest: %+v", st.Drift)
	}
	if st.Requests["ingest"] != 1 {
		t.Fatalf("ingest request counter: %v", st.Requests)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "yala_drift_observations_total 2") {
		t.Fatalf("/metrics missing drift observations:\n%s", prom)
	}

	status, body := postRaw(t, ts, "/v2/ingest",
		`{"measurements":[{"model":"FlowStats","backend":"drifty","measured_pps":-1}]}`)
	if status != http.StatusBadRequest || !strings.Contains(body, "measurements[0]") {
		t.Fatalf("negative measured_pps: status %d body %s", status, body)
	}
	status, body = postRaw(t, ts, "/v2/ingest",
		`{"measurements":[{"model":"","measured_pps":100}]}`)
	if status != http.StatusBadRequest || !strings.Contains(body, "measurements[0]") {
		t.Fatalf("empty model id: status %d body %s", status, body)
	}
}

// TestShadowIsolationAndPromotion is the core lifecycle contract:
// drifted measurements trip a retrain, the candidate shadow-serves
// without its predictions ever reaching a client response, and once
// the candidate beats the live model on ground truth it is promoted
// atomically — generation bump, cache eviction, new predictions.
func TestShadowIsolationAndPromotion(t *testing.T) {
	s := driftService(t, true)
	ctx := context.Background()
	key := feedback.Key{NF: "FlowStats", Backend: "drifty"}
	prof := ProfileSpec{}.Profile()

	// Baseline: the live model predicts 1e6 solo.
	base, err := s.predictCached("drifty", "", "FlowStats", prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.PredictedPPS != 1e6 {
		t.Fatalf("baseline live prediction: %+v", base)
	}

	// Ground truth says the hardware runs at half the modeled rate:
	// ratio 0.5 is far past the drift threshold, so the gate trips as
	// soon as the window fills and the synchronous controller trains a
	// candidate calibrated to the measured scale.
	if _, err := s.Ingest(ctx, driftMeasurements(5e5, 8)); err != nil {
		t.Fatal(err)
	}
	fst := s.fb.Stats()
	if fst.Trips == 0 || fst.Retrains != 1 {
		t.Fatalf("drift should have tripped one retrain: %+v", fst)
	}
	sm, ok := s.fb.ShadowModel(key)
	if !ok || sm.NF() != "FlowStats" {
		t.Fatalf("no shadow candidate after retrain (ok=%v)", ok)
	}
	if pps := sm.(driftyModel).PPS; pps < 4e5 || pps > 6e5 {
		t.Fatalf("candidate not calibrated to measurements: PPS %v", pps)
	}

	// Shadow isolation: a fresh (uncached) scenario runs BOTH models,
	// records the comparison, and returns only the live prediction.
	prof2 := ProfileSpec{Flows: 4096}.Profile()
	live, err := s.predictCached("drifty", "", "FlowStats", prof2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if live.PredictedPPS != 1e6 {
		t.Fatalf("shadow prediction leaked to client: %+v", live)
	}
	if got := s.fb.Stats().ShadowCompares; got == 0 {
		t.Fatal("shadow candidate was not exercised on live traffic")
	}

	// Three more ground-truth reports: the candidate's error is ~0, the
	// live model's is ~100%, so the controller promotes.
	if _, err := s.Ingest(ctx, driftMeasurements(5e5, 3)); err != nil {
		t.Fatal(err)
	}
	fst = s.fb.Stats()
	if fst.Promotions != 1 {
		t.Fatalf("candidate should have been promoted: %+v", fst)
	}
	if fst.Quarantined != 0 {
		t.Fatalf("clean input must not quarantine: %+v", fst)
	}
	if _, ok := s.fb.ShadowModel(key); ok {
		t.Fatal("shadow still active after promotion")
	}

	// The promoted model serves immediately: the old cached entry was
	// evicted, and the same request now answers with the candidate.
	after, err := s.predictCached("drifty", "", "FlowStats", prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after.PredictedPPS != 5e5 {
		t.Fatalf("promotion did not take effect: %+v", after)
	}

	// Generation accounting: initial on-demand train was generation 1,
	// the promotion bumped it to 2, with a fresh timestamp.
	found := false
	for _, info := range s.reg.Models() {
		if info.NF == "FlowStats" && info.Backend == "drifty" && info.HW == "" {
			found = true
			if info.Generation != 2 || info.TrainedAt <= 0 {
				t.Fatalf("promotion generation: %+v", info)
			}
		}
	}
	if !found {
		t.Fatalf("promoted model missing from listing: %+v", s.reg.Models())
	}
}

// TestPromotionUnderLoadZeroDrops hammers the predict endpoint from
// concurrent clients while an ingest stream forces a drift-driven
// promotion, and asserts no request fails at any point in the swap.
func TestPromotionUnderLoadZeroDrops(t *testing.T) {
	s := driftService(t, true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm the live model before the load starts.
	status, body := postRaw(t, ts, "/v2/models/FlowStats/drifty:predict", `{}`)
	if status != http.StatusOK {
		t.Fatalf("warmup predict: status %d body %s", status, body)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				// Cycle profiles so the load mixes cache hits with
				// uncached predictions (which run the shadow compare).
				body := fmt.Sprintf(`{"profile":{"flows":%d}}`, 1000+(i%8)*500)
				st, resp := postRaw(t, ts, "/v2/models/FlowStats/drifty:predict", body)
				if st != http.StatusOK {
					mu.Lock()
					failures = append(failures, fmt.Sprintf("worker %d: status %d body %s", w, st, resp))
					mu.Unlock()
					return
				}
			}
		}(w)
	}

	deadline := time.Now().Add(30 * time.Second)
	for s.fb.Stats().Promotions == 0 && time.Now().Before(deadline) {
		if _, err := s.Ingest(context.Background(), driftMeasurements(5e5, 4)); err != nil {
			t.Errorf("ingest during load: %v", err)
			break
		}
	}
	close(done)
	wg.Wait()

	if len(failures) > 0 {
		t.Fatalf("requests dropped during promotion: %v", failures)
	}
	if got := s.fb.Stats().Promotions; got == 0 {
		t.Fatal("no promotion happened under load")
	}
}

// ingestUntil ingests single measurements at pps until the controller
// has promoted want candidates, failing after max ingests.
func ingestUntil(t *testing.T, s *Service, pps float64, want uint64, max int) {
	t.Helper()
	for i := 0; s.fb.Stats().Promotions < want; i++ {
		if i == max {
			t.Fatalf("no promotion %d after %d ingests at %v: %+v", want, max, pps, s.fb.Stats())
		}
		if _, err := s.Ingest(context.Background(), driftMeasurements(pps, 1)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSecondShiftPromotesAgain: calibration compounds across
// promotions. After the hardware doubles and a candidate at factor 2
// is promoted, a second doubling trips at ratio 2 against the new live
// model and retrains at factor 4, not at nominal × 2 — which would
// rebuild the live model and never beat it.
func TestSecondShiftPromotesAgain(t *testing.T) {
	s := driftService(t, true)
	prof := ProfileSpec{}.Profile()
	ingestUntil(t, s, 2e6, 1, 100)
	ingestUntil(t, s, 4e6, 2, 100)

	st := s.fb.Stats()
	if st.Promotions != 2 || st.Retrains != 2 || st.ShadowAborts != 0 {
		t.Fatalf("want 2 retrains and 2 promotions, no aborts: %+v", st)
	}
	live, err := s.predictCached("drifty", "", "FlowStats", prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if live.PredictedPPS != 4e6 {
		t.Fatalf("live model after the second shift predicts %v, want 4e6", live.PredictedPPS)
	}
}

// TestReloadResetsEvidence: a reload replaces the live model, so the
// evidence gathered against the retired one must not judge its
// replacement. Seven measurements at 2e6 (one short of the warmup
// floor) against the 1e6 model, then a reload of a 2e6 model and a
// stream that matches it: the gate never trips.
func TestReloadResetsEvidence(t *testing.T) {
	s := driftService(t, true)
	ctx := context.Background()
	if _, err := s.Ingest(ctx, driftMeasurements(2e6, 7)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.cfg.Registry.Dir, "FlowStats.drifty.json")
	if err := (driftyBackend{}).Save(driftyModel{Name: "FlowStats", PPS: 2e6}, path); err != nil {
		t.Fatal(err)
	}
	s.Reload("drifty", "FlowStats")
	if _, err := s.Ingest(ctx, driftMeasurements(2e6, 60)); err != nil {
		t.Fatal(err)
	}
	if st := s.fb.Stats(); st.Trips != 0 || st.Retrains != 0 {
		t.Fatalf("evidence about the retired model judged the reloaded one: %+v", st)
	}
}

// TestReloadDiscardsInflightRetrain: in async mode, a retrain that is
// still running when its model is reloaded was trained for the retired
// model; it becomes neither a shadow nor a counted retrain.
func TestReloadDiscardsInflightRetrain(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var s *Service
	s = NewService(ServiceConfig{
		Registry: testRegistryConfig(t),
		Workers:  2,
		Feedback: &feedback.Config{
			WindowSize: 64,
			MinSamples: 8,
			Train: func(k feedback.Key, scale float64) (backend.Model, error) {
				close(started)
				<-release
				return s.feedbackTrain(k, scale)
			},
		},
	})
	t.Cleanup(s.Close)
	if _, err := s.Ingest(context.Background(), driftMeasurements(5e5, 8)); err != nil {
		t.Fatal(err)
	}
	<-started
	s.Reload("drifty", "FlowStats")
	close(release)
	s.fb.Close() // waits for the in-flight retrain to land

	if st := s.fb.Stats(); st.Retrains != 0 || st.TrainFailures != 0 {
		t.Fatalf("retrain for the retired model was counted: %+v", st)
	}
	if _, ok := s.fb.ShadowModel(feedback.Key{NF: "FlowStats", Backend: "drifty"}); ok {
		t.Fatal("retrain for the retired model became a shadow candidate")
	}
}
