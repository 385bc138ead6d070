package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/nicsim"
	"repro/internal/slomo"
	"repro/internal/testbed"
)

// driftNFs mixes contention-light and contention-heavy NFs: NIDS and
// FlowMonitor co-runs lose 15-40% to interference, and the loss widens
// as core frequency rises — the structure a frequency shift exploits.
var driftNFs = []string{"FlowStats", "ACL", "NIDS", "FlowMonitor"}

var (
	driftModelsOnce sync.Once
	driftTinyModels MapModels
	driftModelsErr  error
)

// driftModels trains minimal-cost yala models for driftNFs once per
// test binary (the drift comparison only schedules the yala policy).
func driftModels(t testing.TB) MapModels {
	t.Helper()
	driftModelsOnce.Do(func() {
		tb := testbed.New(nicsim.BlueField2(), 1)
		cfg := driftTrainOptions("yala").(core.TrainConfig)
		driftTinyModels = MapModels{"yala": {}}
		for _, name := range driftNFs {
			m, err := core.NewTrainer(tb, cfg).Train(name)
			if err != nil {
				driftModelsErr = err
				return
			}
			driftTinyModels["yala"][name] = backend.WrapYala(m)
		}
	})
	if driftModelsErr != nil {
		t.Fatalf("training drift test models: %v", driftModelsErr)
	}
	return driftTinyModels
}

// driftScenario is the mid-run hardware-shift scenario the
// static-vs-online comparison replays: a DVFS governor change raises
// core frequency 1.8x partway through the stream, so models trained
// pre-shift mispredict post-shift contention and the stale-model policy
// keeps admitting placements that breach SLAs.
func driftScenario() Scenario {
	return Scenario{
		NICs:         6,
		Arrivals:     100,
		Seed:         9,
		NFs:          driftNFs,
		Profiles:     1,
		MeanIAT:      1,
		MeanLifetime: 12,
		DriftProb:    DefaultDriftProb,
		// The SLA band covers the placements the shift flips from
		// feasible to violating: FlowStats in three-NF mixes (breaks in
		// the 0.13-0.20 band), FlowStats in full quads (0.33-0.48) and
		// ACL packed with FlowMonitor/NIDS (0.21-0.33). That marginal
		// range is exactly where a stale model keeps admitting and a
		// recalibrated one stops.
		SLALo:      0.12,
		SLAHi:      0.35,
		ShiftAt:    20,
		ShiftScale: 1.8,
	}.WithDefaults()
}

// driftTrainOptions uses the full default training recipe: the drift
// comparison turns on prediction-guided admission near the SLA margin,
// where the minimal-cost configs the other cluster tests use are too
// inaccurate to ever admit a marginal placement. The default plan
// trains one NF in ~2s, so four NFs plus a handful of online retrains
// stay affordable for a default-run test.
func driftTrainOptions(backendName string) any {
	switch backendName {
	case "yala":
		cfg := core.DefaultTrainConfig()
		cfg.Seed = 1
		return cfg
	case "slomo":
		scfg := slomo.DefaultConfig()
		scfg.Seed = 1
		return scfg
	}
	return nil
}

// driftFeedbackConfig tunes the gate for enforcement-probe cadence:
// cluster probes are far sparser than serving-path ingests, and their
// scenarios are heterogeneous (solo and co-run ratios respond to a
// frequency shift differently), so the window is shorter and the
// consistency bar looser than the serving defaults.
func driftFeedbackConfig() *feedback.Config {
	return &feedback.Config{
		WindowSize:        16,
		MinSamples:        8,
		MinPromoteSamples: 4,
		ConsistencyMax:    0.25,
	}
}

// runDriftComparison replays the identical stream under the yala policy
// twice — loop open, then loop closed — on fresh environments. Both
// runs go through freshChecked, so every decision of the long-lived
// scheduler — across drift re-placements, migrations and, loop closed,
// the promotions that move the model generation mid-run — is also held
// to a freshly constructed scheduler's.
func runDriftComparison(t *testing.T, sc Scenario) (static, online PolicyResult) {
	t.Helper()
	ctx := context.Background()
	run := func(on bool) PolicyResult {
		s := sc
		s.Online = on
		env := testEnv(t, driftModels(t))
		env.TrainOptions = driftTrainOptions
		env.Feedback = driftFeedbackConfig()
		if err := env.Prewarm(ctx, s, []string{"yala"}); err != nil {
			t.Fatal(err)
		}
		sched, err := NewScheduler("yala", env, s.Seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := env.RunPolicyStream(ctx, s, sc.Stream(), &freshChecked{Scheduler: sched, t: t, env: env})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	return run(false), run(true)
}

// TestOnlineFeedbackClosesLoop is the end-to-end claim behind the
// online-learning subsystem at fleet scale: under a mid-run hardware
// shift the closed loop detects drift from enforcement measurements
// alone, retrains and shadow-scores a calibrated candidate, promotes
// it, and ends the run with strictly fewer SLA violations than the
// static policy replaying the identical stream.
func TestOnlineFeedbackClosesLoop(t *testing.T) {
	static, online := runDriftComparison(t, driftScenario())
	t.Logf("static: violations=%d admitted=%d rejected=%d rollbacks=%d",
		static.Violations, static.Admitted, static.Rejected, static.Rollbacks)
	t.Logf("online: violations=%d admitted=%d rejected=%d rollbacks=%d retrains=%d promotions=%d",
		online.Violations, online.Admitted, online.Rejected, online.Rollbacks, online.Retrains, online.Promotions)
	if static.Retrains != 0 || static.Promotions != 0 {
		t.Fatalf("static run reports feedback activity: %+v", static)
	}
	if online.Retrains == 0 {
		t.Fatalf("online run never retrained: %+v", online)
	}
	if online.Promotions == 0 {
		t.Fatalf("online run never promoted a candidate: %+v", online)
	}
	if online.Violations >= static.Violations {
		t.Fatalf("online policy saw %d violations, static %d — the closed loop must strictly reduce SLA breaches",
			online.Violations, static.Violations)
	}
}

// driftBaselinePath is the committed drift-benchmark record, relative
// to this package.
const driftBaselinePath = "../../BENCH_drift.json"

// driftBaseline is the committed benchmark record CI gates against.
// Every field is deterministic given the scenario, so the gate checks
// exact equality (re-baseline after intentional model changes).
type driftBaseline struct {
	Kind             string  `json:"kind"`
	Scenario         string  `json:"scenario"`
	ShiftAt          float64 `json:"shift_at"`
	ShiftScale       float64 `json:"shift_scale"`
	StaticViolations int     `json:"static_violations"`
	OnlineViolations int     `json:"online_violations"`
	Retrains         int     `json:"retrains"`
	Promotions       int     `json:"promotions"`
}

// TestDriftBenchGate is the CI drift-bench gate, opt-in alongside the
// scheduler bench gate:
//
//	YALA_BENCH_SMOKE=1      go test ./internal/cluster -run TestDriftBenchGate   # gate
//	YALA_BENCH_SMOKE=update go test ./internal/cluster -run TestDriftBenchGate   # re-baseline
//
// It replays the mid-run-shift scenario under the static and online
// yala policies and fails when the online policy stops strictly beating
// the static one on SLA violations, or when the (deterministic) counts
// diverge from the committed BENCH_drift.json.
func TestDriftBenchGate(t *testing.T) {
	mode := os.Getenv("YALA_BENCH_SMOKE")
	if mode == "" {
		t.Skip("set YALA_BENCH_SMOKE=1 to run the drift bench gate (update to re-baseline)")
	}
	sc := driftScenario()
	static, online := runDriftComparison(t, sc)
	cur := driftBaseline{
		Kind: "cluster-drift-bench",
		Scenario: fmt.Sprintf("%s, %d arrivals, %d NFs, %.1fx frequency shift at t=%g, yala policy",
			sc.FleetDesc(), sc.Arrivals, len(sc.NFs), sc.ShiftScale, sc.ShiftAt),
		ShiftAt:          sc.ShiftAt,
		ShiftScale:       sc.ShiftScale,
		StaticViolations: static.Violations,
		OnlineViolations: online.Violations,
		Retrains:         online.Retrains,
		Promotions:       online.Promotions,
	}
	t.Logf("static %d violations, online %d (retrains %d, promotions %d)",
		cur.StaticViolations, cur.OnlineViolations, cur.Retrains, cur.Promotions)

	if mode == "update" {
		data, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(driftBaselinePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", driftBaselinePath)
		return
	}

	if cur.OnlineViolations >= cur.StaticViolations {
		t.Errorf("online policy saw %d violations, static %d — online retraining must strictly win under the shift",
			cur.OnlineViolations, cur.StaticViolations)
	}
	raw, err := os.ReadFile(driftBaselinePath)
	if err != nil {
		t.Fatalf("reading committed baseline (regenerate with YALA_BENCH_SMOKE=update): %v", err)
	}
	var base driftBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	if cur != base {
		t.Errorf("drift bench diverged from committed baseline:\n got %+v\nwant %+v\n(re-baseline with YALA_BENCH_SMOKE=update after intentional model changes)", cur, base)
	}
}
