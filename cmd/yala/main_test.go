package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/pkg/yalaclient"
)

// yalaBin is the binary under test, built once by TestMain — the e2e
// tests drive the real CLI, not in-process calls, so exit codes, flag
// parsing and process wiring are all covered.
var yalaBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "yala-e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	yalaBin = filepath.Join(dir, "yala")
	build := exec.Command("go", "build", "-o", yalaBin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building yala: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the binary and returns stdout, stderr and the exit code.
func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(yalaBin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

// comparisonJSON is the shape assertion for -json outputs.
type comparisonJSON struct {
	Scenario struct {
		NICs     int    `json:"nics"`
		Arrivals int    `json:"arrivals"`
		Workload string `json:"workload"`
	} `json:"scenario"`
	Results []struct {
		Policy    string `json:"policy"`
		Arrivals  int    `json:"arrivals"`
		Admitted  int    `json:"admitted"`
		Rejected  int    `json:"rejected"`
		Rollbacks int    `json:"rollbacks"`
		P50       int64  `json:"decision_p50_ns"`
	} `json:"results"`
}

// stripLatencies zeroes the only nondeterministic fields so replay runs
// compare equal.
func (c *comparisonJSON) stripLatencies() {
	for i := range c.Results {
		c.Results[i].P50 = 0
	}
}

func readComparison(t *testing.T, path string) comparisonJSON {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var c comparisonJSON
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	return c
}

// TestTraceRecordReplayE2E drives the record→replay loop through the
// built binary: exit codes, JSON shape, and determinism (two replays of
// one trace agree exactly on every scheduling outcome).
func TestTraceRecordReplayE2E(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "scenario.trace")

	stdout, stderr, code := run(t,
		"trace", "record", "-out", tracePath,
		"-arrivals", "12", "-classes", "bluefield2:2,pensando:1",
		"-workload", "diurnal", "-nfs", "FlowStats,ACL", "-seed", "9")
	if code != 0 {
		t.Fatalf("trace record exited %d: %s%s", code, stdout, stderr)
	}
	if _, err := os.Stat(tracePath); err != nil {
		t.Fatal(err)
	}

	replay := func(out string) comparisonJSON {
		stdout, stderr, code := run(t,
			"trace", "replay", "-in", tracePath,
			"-policies", "random,firstfit", "-json", out)
		if code != 0 {
			t.Fatalf("trace replay exited %d: %s%s", code, stdout, stderr)
		}
		c := readComparison(t, out)
		c.stripLatencies()
		return c
	}
	r1 := replay(filepath.Join(dir, "r1.json"))
	r2 := replay(filepath.Join(dir, "r2.json"))

	if r1.Scenario.NICs != 3 || r1.Scenario.Arrivals != 12 || r1.Scenario.Workload != "diurnal" {
		t.Fatalf("unexpected replayed scenario: %+v", r1.Scenario)
	}
	if len(r1.Results) != 2 {
		t.Fatalf("replay produced %d results, want 2", len(r1.Results))
	}
	for i, r := range r1.Results {
		if r.Arrivals != 12 || r.Admitted+r.Rejected+r.Rollbacks != 12 {
			t.Fatalf("result %+v does not account for all arrivals", r)
		}
		if r != r2.Results[i] {
			t.Fatalf("replays diverged:\n%+v\n%+v", r, r2.Results[i])
		}
	}

	// Replaying a missing or corrupt trace must exit nonzero.
	if _, _, code := run(t, "trace", "replay", "-in", filepath.Join(dir, "nope.trace")); code == 0 {
		t.Fatal("replay of missing trace exited 0")
	}
	bad := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(bad, []byte("not a trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, code := run(t, "trace", "replay", "-in", bad); code == 0 {
		t.Fatal("replay of corrupt trace exited 0")
	}
}

// TestClusterE2E runs a small mixed-fleet comparison through the binary
// and asserts table output, JSON shape and flag validation.
func TestClusterE2E(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "cmp.json")
	stdout, stderr, code := run(t,
		"cluster", "-arrivals", "8", "-classes", "bluefield2:1,pensando:1",
		"-nfs", "FlowStats", "-policies", "firstfit", "-seed", "4", "-json", out)
	if code != 0 {
		t.Fatalf("cluster exited %d: %s%s", code, stdout, stderr)
	}
	if !bytes.Contains([]byte(stdout), []byte("firstfit")) {
		t.Fatalf("table output missing policy row:\n%s", stdout)
	}
	c := readComparison(t, out)
	if c.Scenario.NICs != 2 || len(c.Results) != 1 || c.Results[0].Policy != "firstfit" {
		t.Fatalf("unexpected comparison: %+v", c)
	}

	if _, _, code := run(t, "cluster", "-workload", "bogus"); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if _, _, code := run(t, "cluster", "-classes", "wat:3"); code == 0 {
		t.Fatal("unknown class exited 0")
	}
	if _, _, code := run(t, "cluster", "-classes", "bluefield2:1O"); code == 0 {
		t.Fatal("malformed class count exited 0")
	}
}

// TestPaperVerbsE2E drives the paper's own verbs through the binary:
// profile an NF, train and persist its model, predict it beside a
// competitor against the measured co-run, and diagnose its bottleneck.
func TestPaperVerbsE2E(t *testing.T) {
	mustRun := func(args ...string) string {
		t.Helper()
		stdout, stderr, code := run(t, args...)
		if code != 0 {
			t.Fatalf("%v exited %d: %s%s", args, code, stdout, stderr)
		}
		return stdout
	}
	if out := mustRun("profile", "-nf", "ACL"); !strings.Contains(out, "NF ACL at") ||
		!regexp.MustCompile(`solo throughput\s+\d+\.\d+ Mpps`).MatchString(out) {
		t.Fatalf("profile output:\n%s", out)
	}

	model := filepath.Join(t.TempDir(), "acl.json")
	mustRun("train", "-nf", "ACL", "-out", model)
	m, err := core.LoadModelFile(model)
	if err != nil {
		t.Fatalf("train wrote a model LoadModelFile rejects: %v", err)
	}
	if m.Name != "ACL" {
		t.Fatalf("trained model names %q, want ACL", m.Name)
	}

	out := mustRun("predict", "-nf", "ACL", "-with", "NIDS")
	for _, line := range []string{"predicted solo", "predicted co-located", "measured  co-located"} {
		if !strings.Contains(out, line) {
			t.Fatalf("predict output missing %q:\n%s", line, out)
		}
	}
	pct := regexp.MustCompile(`\(prediction error (\S+)%\)`).FindStringSubmatch(out)
	if pct == nil {
		t.Fatalf("predict output has no error percentage:\n%s", out)
	}
	if e, err := strconv.ParseFloat(pct[1], 64); err != nil || e < 0 {
		t.Fatalf("prediction error %q: %v", pct[1], err)
	}

	// Per-resource limits print in the predictor's resource order, not in
	// map order: memory before the regex engine, every run.
	out = mustRun("predict", "-nf", "NIDS", "-with", "ACL")
	mem, regex := strings.Index(out, "memory   limit"), strings.Index(out, "regex    limit")
	if mem < 0 || regex < 0 || mem > regex {
		t.Fatalf("predict -nf NIDS: want the memory limit line before the regex line:\n%s", out)
	}

	out = mustRun("diagnose", "-nf", "NIDS")
	if !regexp.MustCompile(`predicted bottleneck \w+, ground truth \w+`).MatchString(out) {
		t.Fatalf("diagnose output:\n%s", out)
	}
}

// TestServeLoadgenE2E boots the real server, drives it with the real
// load generator, and checks the operator surface: healthz, loadgen exit
// codes (success and recorded-error runs), stats shape, and the cluster
// endpoint's request validation.
func TestServeLoadgenE2E(t *testing.T) {
	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	url := "http://" + addr

	srv := exec.Command(yalaBin, "serve", "-addr", addr, "-models", filepath.Join(dir, "models"))
	var srvOut bytes.Buffer
	srv.Stdout, srv.Stderr = &srvOut, &srvOut
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()

	healthy := false
	for i := 0; i < 100; i++ {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				healthy = true
				break
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !healthy {
		t.Fatalf("server never became healthy:\n%s", srvOut.String())
	}

	stdout, stderr, code := run(t,
		"loadgen", "-url", url, "-n", "60", "-c", "4",
		"-nfs", "FlowStats", "-profiles", "2", "-maxcomp", "1", "-seed", "2")
	if code != 0 {
		t.Fatalf("loadgen exited %d:\n%s%s", code, stdout, stderr)
	}

	// A loadgen run against an NF outside the catalog records errors on
	// every request and must exit nonzero (the CI gate contract).
	if _, _, code := run(t, "loadgen", "-url", url, "-n", "4", "-c", "1", "-nfs", "NoSuchNF"); code == 0 {
		t.Fatal("loadgen with unknown NF exited 0")
	}

	// Operator surface through the supported SDK: stats counted the
	// loadgen traffic and the bad-NF errors.
	client := yalaclient.New(url)
	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests["predict"] == 0 {
		t.Fatalf("stats recorded no predictions: %+v", stats)
	}
	if stats.Errors == 0 {
		t.Fatalf("stats recorded no errors despite bad-NF run: %+v", stats)
	}

	// The remote cluster path: `yala cluster -url` submits the scenario
	// to this server over /v2/cluster/runs via the SDK.
	remoteOut := filepath.Join(dir, "remote.json")
	stdout, stderr, code = run(t,
		"cluster", "-url", url, "-arrivals", "6", "-nics", "2",
		"-nfs", "FlowStats", "-policies", "firstfit", "-seed", "4", "-json", remoteOut)
	if code != 0 {
		t.Fatalf("remote cluster exited %d: %s%s", code, stdout, stderr)
	}
	if !bytes.Contains([]byte(stdout), []byte("firstfit")) {
		t.Fatalf("remote cluster table missing policy row:\n%s", stdout)
	}
	if c := readComparison(t, remoteOut); c.Scenario.Arrivals != 6 || len(c.Results) != 1 {
		t.Fatalf("remote comparison: %+v", c)
	}

	// The cluster endpoint validates class and workload specs as 400s.
	for _, body := range []string{
		`{"classes":[{"class":"wat","count":1}]}`,
		`{"workload":"bogus"}`,
	} {
		resp, err := http.Post(url+"/v2/cluster/runs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("/v2/cluster/runs %s: status %d, want 400", body, resp.StatusCode)
		}
	}

	// The SDK surfaces the same validation as a typed APIError.
	if _, err := client.ClusterRun(context.Background(), yalaclient.ClusterRunParams{Workload: "bogus"}); err == nil {
		t.Fatal("SDK cluster run with bad workload returned nil error")
	}
}

// lintJSON is the shape assertion for `yala lint -json` output — the
// contract CI tooling parses.
type lintJSON struct {
	Findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	} `json:"findings"`
	Packages int `json:"packages"`
}

// TestLintE2E drives the static-analysis verb through the built binary:
// a clean package exits 0, a fixture with known violations exits
// nonzero, and -json writes the machine-readable report.
func TestLintE2E(t *testing.T) {
	stdout, stderr, code := run(t, "lint", "./internal/obs")
	if code != 0 {
		t.Fatalf("lint of clean package exited %d: %s%s", code, stdout, stderr)
	}
	if !bytes.Contains([]byte(stdout), []byte("clean")) {
		t.Fatalf("clean lint run did not report clean:\n%s", stdout)
	}

	// Fixture directories are skipped by ./... walks but reachable as
	// explicit patterns — the bodyclose fixture has known leaks.
	dir := t.TempDir()
	out := filepath.Join(dir, "lint.json")
	stdout, stderr, code = run(t, "lint", "-json", out,
		"./internal/analysis/testdata/src/bodyclose")
	if code == 0 {
		t.Fatalf("lint of violation fixture exited 0: %s%s", stdout, stderr)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep lintJSON
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("parsing %s: %v", out, err)
	}
	if rep.Packages != 1 || len(rep.Findings) == 0 {
		t.Fatalf("unexpected lint report: %+v", rep)
	}
	for _, f := range rep.Findings {
		if f.Analyzer != "bodyclose" || f.File == "" || f.Line == 0 || f.Message == "" {
			t.Fatalf("malformed finding: %+v", f)
		}
		// Text output and the JSON report describe the same findings.
		if !bytes.Contains([]byte(stdout), []byte(f.Message)) {
			t.Fatalf("finding %q missing from text output:\n%s", f.Message, stdout)
		}
	}

	// Unknown patterns exit nonzero rather than reporting clean.
	if _, _, code := run(t, "lint", "./no/such/dir"); code == 0 {
		t.Fatal("lint of nonexistent pattern exited 0")
	}
}

// TestGatewayE2E boots the scale-out gateway with two in-process
// replicas through the real binary and drives it with the real load
// generator in -gateway mode: both replicas must serve traffic, a
// reload must fan out to both, and flag validation must exit nonzero.
func TestGatewayE2E(t *testing.T) {
	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	url := "http://" + addr

	gw := exec.Command(yalaBin, "gateway", "-addr", addr,
		"-replicas", "2", "-models", filepath.Join(dir, "models"))
	var gwOut bytes.Buffer
	gw.Stdout, gw.Stderr = &gwOut, &gwOut
	if err := gw.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		gw.Process.Kill()
		gw.Wait()
	}()

	healthy := false
	for i := 0; i < 100; i++ {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				healthy = true
				break
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !healthy {
		t.Fatalf("gateway never became healthy:\n%s", gwOut.String())
	}

	// The default 5-NF pool spreads across both replicas under the
	// deterministic slot-indexed rendezvous hash (pinned by
	// TestRoutingDefaultPoolSpreads in internal/gateway).
	stdout, stderr, code := run(t,
		"loadgen", "-url", url, "-gateway", "-n", "120", "-c", "4",
		"-profiles", "2", "-maxcomp", "1", "-seed", "2")
	if code != 0 {
		t.Fatalf("gateway loadgen exited %d:\n%s%s", code, stdout, stderr)
	}
	if !bytes.Contains([]byte(stdout), []byte("replica")) {
		t.Fatalf("-gateway report lacks the replica distribution:\n%s", stdout)
	}

	client := yalaclient.New(url)
	st, err := client.GatewayStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Replicas) != 2 {
		t.Fatalf("gateway reports %d replicas, want 2", len(st.Replicas))
	}
	for _, rep := range st.Replicas {
		if !rep.Healthy || rep.Requests == 0 {
			t.Fatalf("replica %s idle or unhealthy after loadgen: %+v", rep.URL, rep)
		}
	}

	// Reload fans out to both replicas.
	before := st
	if err := client.Reload(context.Background(), yalaclient.ModelID{NF: "FlowStats"}, "yala"); err != nil {
		t.Fatal(err)
	}
	st, err = client.GatewayStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Fanouts != before.Fanouts+1 {
		t.Fatalf("gateway fanouts %d → %d, want +1", before.Fanouts, st.Fanouts)
	}
	for i, rep := range st.Replicas {
		if rep.Fanouts != before.Replicas[i].Fanouts+1 {
			t.Fatalf("replica %s fanouts %d → %d, want +1", rep.URL, before.Replicas[i].Fanouts, rep.Fanouts)
		}
	}

	// Aggregate stats answer through the gateway (loadgen's hit-rate
	// snapshot depends on this).
	agg, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if agg.Requests["predict"] == 0 {
		t.Fatalf("aggregate stats counted no predictions: %+v", agg.Requests)
	}

	// Flag validation: -replicas without -models, and no replicas at
	// all, both exit nonzero.
	if _, _, code := run(t, "gateway", "-replicas", "2"); code == 0 {
		t.Fatal("gateway -replicas without -models exited 0")
	}
	if _, _, code := run(t, "gateway"); code == 0 {
		t.Fatal("gateway without replicas or backends exited 0")
	}
}
