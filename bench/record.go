package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

const recordSchema = "yala-bench/v1"

// box is the fingerprint of the machine and the source a record came
// from: numbers from different boxes are not comparable, and -compare
// says so.
type box struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"git_commit"`
	Dirty      bool   `json:"git_dirty"`
}

func fingerprint() box {
	b := box{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown",
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				b.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// Outside a git checkout (the driver's) both commands fail and the
	// record says "unknown".
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		b.Commit = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			b.Dirty = len(strings.TrimSpace(string(out))) > 0
		}
	}
	return b
}

// record is bench/out/result.json: one versioned shape for every number
// the benchmark produces.
type record struct {
	Schema    string           `json:"schema"`
	Box       box              `json:"box"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Quick     bool             `json:"quick,omitempty"`
	Clients   int              `json:"clients"`
	EndToEnd  []metricDef      `json:"end_to_end_metrics"`
	PerLayer  []metricDef      `json:"per_layer_metrics"`
	Floors    []string         `json:"floors"`
	Workloads []workloadResult `json:"workloads"`
}

func newRecord(cfg *config, results []workloadResult) record {
	return record{Schema: recordSchema, Box: fingerprint(), Seed: cfg.Seed, Seconds: cfg.Window.Seconds(),
		Quick: cfg.Quick, Clients: cfg.Clients, EndToEnd: endToEnd, PerLayer: perLayer,
		// The rows that are floors for the achieved rows beside them.
		Floors:    []string{"wire.echo_rtt_us", "floor.http_rtt_us"},
		Workloads: results}
}

func (r record) write(dir string) (string, error) {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "result.json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRecord(path string) (record, error) {
	var r record
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != recordSchema {
		return r, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, recordSchema)
	}
	return r, nil
}

// sliceSpread is the run's own resolution on a sliced metric: the
// distance between the quartiles of the per-slice values as a share of
// their median. A difference smaller than this cannot be told from
// noise by one pair of runs.
func sliceSpread(rows []sliceRow, pick func(sliceRow) float64) float64 {
	if len(rows) < 4 {
		return 0
	}
	vals := make([]float64, len(rows))
	for i, r := range rows {
		vals[i] = pick(r)
	}
	q1, q3 := quantile(vals, 0.25), quantile(vals, 0.75)
	return ratio(q3-q1, median(vals))
}

// compareRecords prints, per (workload, end-to-end metric), the change
// from base to next as a ratio with its base, the metric's bound, and a
// verdict: ok, regressed, or unresolved when a sliced metric's own
// slice-to-slice spread in either run is wider than the bound. It
// returns how many pairs regressed.
func compareRecords(w io.Writer, base, next record) int {
	if base.Box.CPUModel != next.Box.CPUModel || base.Box.GOMAXPROCS != next.Box.GOMAXPROCS {
		fmt.Fprintf(w, "warning: records come from different boxes (%s x%d vs %s x%d)\n",
			base.Box.CPUModel, base.Box.GOMAXPROCS, next.Box.CPUModel, next.Box.GOMAXPROCS)
	}
	byName := map[string]workloadResult{}
	for _, wl := range next.Workloads {
		byName[wl.Name] = wl
	}
	picks := map[string]func(sliceRow) float64{
		"ops_per_s":       func(r sliceRow) float64 { return r.OpsPerS },
		"latency_p50_us":  func(r sliceRow) float64 { return r.P50US },
		"latency_tail_us": func(r sliceRow) float64 { return r.TailUS },
	}
	regressed := 0
	fmt.Fprintf(w, "%-12s %-28s %14s %14s %8s %7s  %s\n", "workload", "metric", "base", "next", "ratio", "bound", "verdict")
	for _, a := range base.Workloads {
		b, ok := byName[a.Name]
		if !ok {
			continue
		}
		for _, m := range endToEnd {
			va, oka := a.EndToEnd[m.Name]
			vb, okb := b.EndToEnd[m.Name]
			if !oka || !okb {
				continue
			}
			worse := ratio(vb-va, va)
			if m.Better == "higher" {
				worse = ratio(va-vb, va)
			}
			verdict := "ok"
			spread := 0.0
			if pick, sliced := picks[m.Name]; sliced {
				spread = max(sliceSpread(a.Slices, pick), sliceSpread(b.Slices, pick))
			}
			switch {
			case spread > m.Bound:
				verdict = fmt.Sprintf("unresolved (slice spread %.1f%% > bound)", 100*spread)
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-12s %-28s %14.4f %14.4f %8.4f %6.0f%%  %s\n", a.Name, m.Name+" ("+m.Unit+")", va, vb, ratio(vb, va), 100*m.Bound, verdict)
		}
		for _, name := range sortedKeys(exactMetrics) {
			va, oka := a.PerLayer[name]
			vb, okb := b.PerLayer[name]
			if !oka || !okb || (va == 0 && vb == 0) {
				continue
			}
			verdict := "ok (exact repeat)"
			switch {
			case base.Seed != next.Seed:
				verdict = "not compared: seeds differ"
			case name == "serve.mape_pct" && vb > va+mapeSlackPoints, name != "serve.mape_pct" && va != vb:
				verdict = "regressed"
				regressed++
			case va != vb:
				verdict = "ok (within slack)"
			}
			fmt.Fprintf(w, "%-12s %-28s %14.6f %14.6f %8.4f %7s  %s\n", a.Name, name, va, vb, ratio(vb, va), "exact", verdict)
		}
	}
	return regressed
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
