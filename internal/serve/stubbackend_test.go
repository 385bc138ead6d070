package serve

// This file is the pluggability proof for the backend redesign: a
// third prediction backend — a constant-throughput stub — registered
// entirely from test code, with ZERO edits to registry.go or the HTTP
// layer. The test walks it through the full serving surface: on-demand
// training, persistence, reload-from-disk, model listing, /v2
// prediction, admission control and a fleet run under it as the
// scheduling policy.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/nf"
	"repro/internal/wire"
)

// fakeBackend predicts a constant solo throughput that degrades
// harmonically with competitor count — deliberately trivial, so the
// test asserts plumbing rather than model quality.
type fakeBackend struct{}

type fakeModel struct {
	Name string  `json:"name"`
	PPS  float64 `json:"pps"`
}

func (m fakeModel) NF() string { return m.Name }

func (fakeBackend) Name() string { return "fake" }

func (fakeBackend) Train(env backend.TrainEnv, name string) (backend.Model, error) {
	if !nf.Known(name) {
		return nil, fmt.Errorf("fake: unknown NF %q", name)
	}
	return fakeModel{Name: name, PPS: 1e6}, nil
}

func (fakeBackend) Predict(m backend.Model, sc backend.Scenario) (backend.Prediction, error) {
	fm, ok := m.(fakeModel)
	if !ok {
		return backend.Prediction{}, fmt.Errorf("fake: foreign model %T", m)
	}
	return backend.Prediction{
		SoloPPS:      fm.PPS,
		PredictedPPS: fm.PPS / float64(1+len(sc.Competitors)),
	}, nil
}

func (fakeBackend) Save(m backend.Model, path string) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func (fakeBackend) Load(path string) (backend.Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m fakeModel
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, err
	}
	if m.Name == "" || m.PPS <= 0 {
		return nil, fmt.Errorf("fake: %s is not a fake model", path)
	}
	return m, nil
}

func init() { backend.Register(fakeBackend{}) }

// TestStubBackendEndToEnd walks the registered stub through the whole
// serving stack.
func TestStubBackendEndToEnd(t *testing.T) {
	cfg := testRegistryConfig(t)
	reg := NewRegistry(cfg)
	var trainings atomic.Int64
	reg.trainHook = func(b Backend, hw, name string) {
		if b == "fake" {
			trainings.Add(1)
		}
	}

	// Train-on-demand and persistence through the generic registry.
	m, err := reg.Model("fake", "FlowStats")
	if err != nil {
		t.Fatal(err)
	}
	if m.NF() != "FlowStats" || trainings.Load() != 1 {
		t.Fatalf("stub training: model %v, trainings %d", m, trainings.Load())
	}
	if _, err := os.Stat(filepath.Join(cfg.Dir, "FlowStats.fake.json")); err != nil {
		t.Fatalf("stub model not persisted: %v", err)
	}

	// A fresh registry loads the persisted stub model without retraining.
	reg2 := NewRegistry(cfg)
	reg2.trainHook = func(b Backend, hw, name string) {
		if b == "fake" {
			t.Errorf("unexpected stub retraining of %s@%q", name, hw)
		}
	}
	if m2, err := reg2.Model("fake", "FlowStats"); err != nil || m2.NF() != "FlowStats" {
		t.Fatalf("reloading stub model: %v (err %v)", m2, err)
	}

	// Model listing discovers the stub's on-disk file like any builtin.
	found := false
	for _, info := range reg2.Models() {
		if info.Backend == "fake" && info.NF == "FlowStats" && info.OnDisk {
			found = true
			if got := resourceID(info); got != "FlowStats/fake" {
				t.Fatalf("stub resource ID %q", got)
			}
		}
	}
	if !found {
		t.Fatalf("stub model missing from listing: %+v", reg2.Models())
	}
}

// TestStubBackendHTTP drives the stub through the /v2 API: predict,
// listing, and the scheduler-policy surface — all without the server
// knowing the backend exists at compile time.
func TestStubBackendHTTP(t *testing.T) {
	ts := testServer(t)

	resp := postAs[PredictResponse](t, ts, "/v2/models/FlowStats/fake:predict",
		wire.PredictParams{Competitors: []CompetitorSpec{{Name: "ACL"}}})
	if resp.Backend != "fake" || resp.SoloPPS != 1e6 || resp.PredictedPPS != 5e5 {
		t.Fatalf("stub /v2 prediction: %+v", resp)
	}

	// The stub shares the generic validation path: unknown NFs are 400s.
	status, body := postRaw(t, ts, "/v2/models/NoSuchNF/fake:predict", `{}`)
	if status != http.StatusBadRequest || !strings.Contains(body, "unknown NF") {
		t.Fatalf("stub bad-NF: status %d body %s", status, body)
	}

	// A registered backend is automatically a scheduling policy.
	policies := getAs[ClusterPoliciesResponse](t, ts, "/v2/cluster/policies")
	hasFake := false
	for _, p := range policies.Policies {
		hasFake = hasFake || p == "fake"
	}
	if !hasFake {
		t.Fatalf("policies %v missing the stub backend", policies.Policies)
	}

	// Admission runs the stub through placement's scorer. Beside one
	// ACL resident the stub predicts 5e5 pps for each ACL, and each is
	// held to (1-SLA) times its *measured* solo (~1.2 Mpps), not to the
	// stub's 1e6.
	for _, tc := range []struct {
		sla    float64
		admit  bool
		reason string
	}{
		{sla: 0.9, admit: true},
		{sla: 0.1, admit: false, reason: "sla"},
	} {
		adm := postAs[AdmitResponse](t, ts, "/v2/models/ACL/fake:admit", wire.AdmitParams{
			Residents: []ColoNF{{Name: "ACL", SLA: tc.sla}},
			SLA:       tc.sla,
		})
		if adm.Backend != "fake" || adm.Residents != 1 || adm.Admit != tc.admit || adm.Reason != tc.reason {
			t.Fatalf("stub admit at SLA %g: %+v, want admit %v reason %q", tc.sla, adm, tc.admit, tc.reason)
		}
	}

	// ... and the stub schedules a fleet as a cluster policy.
	cmp := postAs[cluster.Comparison](t, ts, "/v2/cluster/runs", ClusterRunRequest{
		NICs:     2,
		Arrivals: 6,
		Seed:     3,
		NFs:      []string{"ACL"},
		Policies: []string{"fake"},
		Profiles: 1,
	})
	if len(cmp.Results) != 1 || cmp.Results[0].Policy != "fake" {
		t.Fatalf("stub cluster run: %+v", cmp.Results)
	}
	if r := cmp.Results[0]; r.Admitted < 1 || r.Admitted+r.Rejected+r.Rollbacks != r.Arrivals {
		t.Fatalf("stub policy admitted nothing or miscounted: %+v", r)
	}
}
