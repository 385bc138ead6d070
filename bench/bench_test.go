package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/pkg/yalaclient"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// quickTestConfig is quickConfig with its files under the test's
// directories. Models are trained once for the whole test binary.
func quickTestConfig(t *testing.T) *config {
	t.Helper()
	cfg := quickConfig(1)
	cfg.OutDir = t.TempDir()
	cfg.ModelDir = sharedModels(t)
	return cfg
}

var modelDir string

func sharedModels(t *testing.T) string {
	t.Helper()
	if modelDir == "" {
		dir, err := os.MkdirTemp("", "yala-bench-models")
		if err != nil {
			t.Fatal(err)
		}
		cfg := quickConfig(1)
		cfg.ModelDir = dir
		if err := ensureModels(cfg, io.Discard); err != nil {
			t.Fatal(err)
		}
		modelDir = dir
	}
	return modelDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if modelDir != "" {
		os.RemoveAll(modelDir)
	}
	os.Exit(code)
}

// TestManifestMatchesCatalog holds BENCHMARK.json to the tables the
// program prints from, and both to the driver's naming rules.
func TestManifestMatchesCatalog(t *testing.T) {
	m := readManifest(t)
	if len(m.Paths) != 1 || m.Paths[0] != "bench" || strings.Join(m.Command, " ") != "go run ./bench" {
		t.Errorf("command %q over paths %q, want go run ./bench over bench", m.Command, m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, m.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end-to-end", m.EndToEnd, endToEnd)
	same("per-layer", m.PerLayer, perLayer)

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("metric %+v breaks the naming rules", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for n := range exactMetrics {
		if !seen[n] {
			t.Errorf("exact metric %s is not in the catalog", n)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("%d end-to-end, %d per-layer metrics, run_seconds %d: outside the driver's limits", len(endToEnd), len(perLayer), m.RunSeconds)
	}
}

// TestQuickRun drives every workload end to end at smoke-test size,
// traced and untraced, and checks that each passes its own verification
// and prints every metric BENCHMARK.json names exactly once, finite.
func TestQuickRun(t *testing.T) {
	m := readManifest(t)
	cfg := quickTestConfig(t)
	var results []workloadResult
	for _, def := range workloads {
		res, err := runWorkload(def, cfg, "both", io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Checks {
			if !c.OK {
				t.Errorf("%s: check %q failed: %s", def.Name, c.Name, c.Detail)
			}
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", def.Name, res.Correct, res.Attempted, res.Failed)
		}
		var out bytes.Buffer
		printResult(&out, res)
		for _, d := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
			var values []string
			for _, line := range strings.Split(out.String(), "\n") {
				if f := strings.Fields(line); len(f) >= 3 && f[0] == d.Name {
					values = append(values, f[1])
					if f[2] != d.Unit {
						t.Errorf("%s: %s printed in %s, want %s", def.Name, d.Name, f[2], d.Unit)
					}
				}
			}
			if len(values) != 1 {
				t.Errorf("%s: %s printed %d times, want once", def.Name, d.Name, len(values))
				continue
			}
			if v, err := strconv.ParseFloat(values[0], 64); err != nil || !finite(v) {
				t.Errorf("%s: %s = %q is not a finite number", def.Name, d.Name, values[0])
			}
		}
		if _, err := os.Stat(filepath.Join(cfg.OutDir, "trace-"+def.Name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", def.Name, err)
		}
		results = append(results, res)
	}

	// The record round-trips, and a record compared with itself is clean.
	path, err := newRecord(cfg, results).write(cfg.OutDir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := readRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	if n := compareRecords(&table, rec, rec); n != 0 {
		t.Errorf("a record regressed against itself on %d pairs:\n%s", n, table.String())
	}
	worse := rec
	worse.Workloads = append([]workloadResult(nil), rec.Workloads...)
	slow := worse.Workloads[0]
	slow.EndToEnd = merged(slow.EndToEnd)
	slow.EndToEnd["cpu_us_per_op"] *= 2
	worse.Workloads[0] = slow
	if n := compareRecords(io.Discard, rec, worse); n != 1 {
		t.Errorf("doubling one workload's cpu_us_per_op regressed %d pairs, want 1", n)
	}
}

// TestVerifierTrips proves the output checks can fail: a served answer
// with one float nudged, and a fleet outcome with one count off.
func TestVerifierTrips(t *testing.T) {
	def, _ := findWorkload("serve-hot")
	inst, err := bootServeHot(quickTestConfig(t), def)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	h := inst.(*serveHot)
	answers, err := h.rig.predictAll(h.scs)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.compare(answers, nil); err != nil {
		t.Fatalf("intact answers rejected: %v", err)
	}
	for name, corrupt := range map[string]func(*yalaclient.PredictResult){
		"throughput": func(r *yalaclient.PredictResult) { r.PredictedPPS *= 1 + 1e-12 },
		"bottleneck": func(r *yalaclient.PredictResult) { r.Bottleneck += "?" },
		"profile":    func(r *yalaclient.PredictResult) { r.Profile.MTBR = yalaclient.F64(*r.Profile.MTBR + 1) },
	} {
		if err := h.compare(answers, corrupt); err == nil {
			t.Errorf("an answer with a corrupted %s passed verification", name)
		}
	}

	good := cluster.PolicyResult{Policy: "yala", Arrivals: 10, Admitted: 7, Rejected: 2, Rollbacks: 1, DecisionP50: 5}
	later := good
	later.DecisionP50, later.DecisionP99 = 9, 99
	if err := sameFleetOutcome(good, later); err != nil {
		t.Errorf("replays differing only in decision latency rejected: %v", err)
	}
	later.Violations++
	if err := sameFleetOutcome(good, later); err == nil {
		t.Error("a replay with one more violation passed verification")
	}
	if err := fleetInvariant(good); err != nil {
		t.Errorf("balanced accounting rejected: %v", err)
	}
	good.Admitted++
	if err := fleetInvariant(good); err == nil {
		t.Error("unbalanced arrival accounting passed verification")
	}
}

// TestRefusesOversubscription holds the harness to its own limits.
func TestRefusesOversubscription(t *testing.T) {
	for _, args := range [][]string{{"-clients", "3"}, {"-procs", "4096"}, {"-trace", "2"}, {"-workload", "nope"}} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("bench %v exited %d, want 2", args, code)
		}
	}
}
