package cluster

import (
	"context"
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/nf"
	"repro/internal/nicsim"
	"repro/internal/placement"
	"repro/internal/profiling"
	"repro/internal/slomo"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

// testNFs is the pool the model-needing tests draw from; kept to two NFs
// so tiny-model training stays cheap.
var testNFs = []string{"FlowStats", "ACL"}

var (
	modelsOnce sync.Once
	tinyModels MapModels
	modelsErr  error
)

// testModels trains minimal-cost Yala and SLOMO models for testNFs once
// per test binary. Accuracy is irrelevant — these tests assert
// determinism and orchestration logic, not model quality.
func testModels(t testing.TB) MapModels {
	t.Helper()
	modelsOnce.Do(func() {
		tb := testbed.New(nicsim.BlueField2(), 1)
		cfg := core.DefaultTrainConfig()
		cfg.Seed = 1
		cfg.Plan = profiling.Random(12, 1)
		cfg.PatternProbes = 1
		cfg.GBR = ml.GBRConfig{Trees: 25, LearningRate: 0.15, MaxDepth: 3, MinLeaf: 2, Subsample: 1, Seed: 1}
		scfg := slomo.DefaultConfig()
		scfg.Seed = 1
		scfg.Samples = 12
		scfg.GBR = cfg.GBR
		tinyModels = MapModels{"yala": {}, "slomo": {}}
		for _, name := range testNFs {
			m, err := core.NewTrainer(tb, cfg).Train(name)
			if err != nil {
				modelsErr = err
				return
			}
			tinyModels["yala"][name] = backend.WrapYala(m)
			sm, err := slomo.Train(tb, name, traffic.Default, scfg)
			if err != nil {
				modelsErr = err
				return
			}
			tinyModels["slomo"][name] = backend.WrapSLOMO(sm)
		}
	})
	if modelsErr != nil {
		t.Fatalf("training test models: %v", modelsErr)
	}
	return tinyModels
}

func testEnv(t testing.TB, models ModelSource) *Env {
	t.Helper()
	if models == nil {
		models = MapModels{}
	}
	return NewEnv(nicsim.BlueField2(), 1, models)
}

// newFleet is an empty fleet of n NICs on the environment's base class.
func newFleet(t testing.TB, env *Env, n int) *Fleet {
	t.Helper()
	f, err := env.ScenarioFleet(Scenario{NICs: n})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func testScenario() Scenario {
	return Scenario{
		NICs:      4,
		Arrivals:  12,
		Seed:      3,
		NFs:       testNFs,
		Profiles:  2,
		DriftProb: 0.5,
	}.WithDefaults()
}

func TestStreamDeterministicAndOrdered(t *testing.T) {
	for _, kind := range Workloads() {
		sc := testScenario()
		sc.Workload = kind
		s1, s2 := sc.Stream(), sc.Stream()
		if len(s1) != sc.Arrivals {
			t.Fatalf("%s: stream has %d events, want %d", kind, len(s1), sc.Arrivals)
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("%s: stream not deterministic at %d: %+v vs %+v", kind, i, s1[i], s2[i])
			}
			if s1[i].ID != i {
				t.Fatalf("%s: event %d has tenant ID %d", kind, i, s1[i].ID)
			}
			if i > 0 && s1[i].At < s1[i-1].At {
				t.Fatalf("%s: event %d at %g before event %d at %g", kind, i, s1[i].At, i-1, s1[i-1].At)
			}
			if sla := s1[i].SLA; sla < sc.SLALo || sla > sc.SLAHi {
				t.Fatalf("%s: event %d SLA %g outside [%g, %g]", kind, i, sla, sc.SLALo, sc.SLAHi)
			}
			if s1[i].Lifetime <= 0 {
				t.Fatalf("%s: event %d has non-positive lifetime %g", kind, i, s1[i].Lifetime)
			}
			if s1[i].DriftAt < 0 {
				t.Fatalf("%s: event %d has negative drift time %g", kind, i, s1[i].DriftAt)
			}
		}
		// A different seed must produce a different stream.
		sc2 := sc
		sc2.Seed = sc.Seed + 1
		d1, d2 := sc.Stream(), sc2.Stream()
		same := true
		for i := range d1 {
			if d1[i] != d2[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%s: different seeds produced identical streams", kind)
		}
	}
}

func TestWorkloadKindsDiffer(t *testing.T) {
	base := testScenario()
	base.Arrivals = 40
	streams := map[string][]TenantSpec{}
	for _, kind := range Workloads() {
		sc := base
		sc.Workload = kind
		streams[kind] = sc.Stream()
	}
	// Each non-churn generator must actually reshape the workload.
	for _, kind := range []string{WorkloadDiurnal, WorkloadFlashCrowd, WorkloadHeavyTail} {
		same := true
		for i := range streams[kind] {
			if streams[kind][i] != streams[WorkloadChurn][i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("workload %s generated the identical stream to churn", kind)
		}
	}
	// Unknown kinds are rejected.
	bad := base
	bad.Workload = "nope"
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown workload kind validated")
	}
}

func TestFirstFitAndRandomPolicies(t *testing.T) {
	env := testEnv(t, nil)
	f := newFleet(t, env, 3)
	a := placement.Arrival{Name: "FlowStats", Profile: traffic.Default, SLA: 0.1}

	ff, err := NewScheduler("firstfit", env, 1)
	if err != nil {
		t.Fatal(err)
	}
	if idx, _ := ff.Choose(f, a); idx != 0 {
		t.Fatalf("firstfit on empty fleet chose %d, want 0", idx)
	}
	// Fill NIC 0; first-fit moves to NIC 1.
	for f.Fits(0) {
		f.place(0, Tenant{ID: 100 + len(f.NICs[0].Tenants), Arrival: a})
	}
	if idx, _ := ff.Choose(f, a); idx != 1 {
		t.Fatalf("firstfit with NIC 0 full chose %d, want 1", idx)
	}

	// Random only ever picks NICs with capacity, deterministically under
	// one seed.
	r1, _ := NewScheduler("random", env, 7)
	r2, _ := NewScheduler("random", env, 7)
	for i := 0; i < 20; i++ {
		i1, _ := r1.Choose(f, a)
		i2, _ := r2.Choose(f, a)
		if i1 != i2 {
			t.Fatalf("random policy not deterministic: %d vs %d", i1, i2)
		}
		if i1 == 0 {
			t.Fatal("random chose a full NIC")
		}
	}

	// A full fleet rejects under every policy.
	for i := 1; i < 3; i++ {
		for f.Fits(i) {
			f.place(i, Tenant{ID: 200 + 10*i + len(f.NICs[i].Tenants), Arrival: a})
		}
	}
	for _, name := range []string{"random", "firstfit"} {
		s, _ := NewScheduler(name, env, 1)
		if idx, _ := s.Choose(f, a); idx != -1 {
			t.Fatalf("%s on full fleet chose %d, want -1", name, idx)
		}
	}

	if _, err := NewScheduler("nope", env, 1); err == nil {
		t.Fatal("unknown policy did not error")
	}
}

func TestPredictFitConsolidatesUnderGenerousSLA(t *testing.T) {
	env := testEnv(t, testModels(t))
	f := newFleet(t, env, 3)
	// NIC 1 holds one resident; a generous SLA makes co-location
	// predicted-feasible, so best-fit must consolidate onto NIC 1 rather
	// than open an empty NIC.
	generous := placement.Arrival{Name: "FlowStats", Profile: traffic.Default, SLA: 0.95}
	f.place(1, Tenant{ID: 0, Arrival: generous})
	for _, policy := range []string{"yala", "slomo"} {
		s, err := NewScheduler(policy, env, 1)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := s.Choose(f, generous)
		if err != nil {
			t.Fatal(err)
		}
		if idx != 1 {
			t.Fatalf("%s chose NIC %d, want consolidation on 1", policy, idx)
		}
	}
}

func TestEventOrdering(t *testing.T) {
	env := testEnv(t, nil)
	// One NIC, one tenant slot: admission outcomes depend entirely on
	// event order.
	env.Sim.NICCores = nf.NFCores
	sc := Scenario{NICs: 1, Arrivals: 3, Seed: 5, NFs: testNFs, DriftProb: -1}.WithDefaults()
	o, err := newOrchestrator(context.Background(), env, sc, firstFit{})
	if err != nil {
		t.Fatal(err)
	}
	a := placement.Arrival{Name: "FlowStats", Profile: traffic.Default, SLA: 0.1}
	// Tenant 0 occupies the slot for life0 seconds; tenant 1 arrives
	// mid-life and must be rejected; tenant 2 arrives after the
	// departure and must be admitted.
	const life0 = 20.0
	spec := func(id int, at, life float64) TenantSpec {
		return TenantSpec{Tenant: Tenant{ID: id, Arrival: a}, At: at, Lifetime: life}
	}
	for _, s := range []TenantSpec{
		spec(0, 1, life0),
		spec(1, 1+life0/2, life0),
		spec(2, 1+life0+1, life0),
	} {
		s := s
		o.engine.At(s.At, func() { o.arrive(s) })
	}
	o.engine.Run()
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.res.Admitted != 2 || o.res.Rejected != 1 || o.res.Departures != 2 {
		t.Fatalf("admitted/rejected/departed = %d/%d/%d, want 2/1/2",
			o.res.Admitted, o.res.Rejected, o.res.Departures)
	}
	for _, n := range o.fleet.NICs {
		if len(n.Tenants) != 0 {
			t.Fatalf("NIC %d still holds %d tenants after drain", n.ID, len(n.Tenants))
		}
	}
}

// scriptSched returns a fixed sequence of targets — the migration tests
// drive the orchestrator with it, independent of any model.
type scriptSched struct {
	targets []int
	i       int
}

func (s *scriptSched) Name() string { return "script" }

func (s *scriptSched) Choose(f *Fleet, a placement.Arrival) (int, error) {
	t := s.targets[s.i%len(s.targets)]
	s.i++
	return t, nil
}

func TestDriftMigration(t *testing.T) {
	env := testEnv(t, nil)
	sc := Scenario{NICs: 2, Arrivals: 1, Seed: 1, NFs: testNFs}.WithDefaults()
	// Two regex-accelerator NFs share NIC 0 under zero-tolerance SLAs:
	// any throughput drop is a breach, so the post-drift check must
	// breach and the scripted policy migrates the drifted tenant to the
	// empty NIC 1.
	o, err := newOrchestrator(context.Background(), env, sc, &scriptSched{targets: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	o.fleet.place(0, Tenant{ID: 0, Arrival: placement.Arrival{Name: "NIDS", Profile: traffic.Default, SLA: 0}})
	o.fleet.place(0, Tenant{ID: 1, Arrival: placement.Arrival{Name: "FlowMonitor", Profile: traffic.Default, SLA: 0}})
	o.drift(1, traffic.Profile{Flows: 64000, PktSize: 512, MTBR: 1000})
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.res.Violations == 0 {
		t.Fatal("zero-tolerance co-location drifted without a recorded violation")
	}
	if o.res.Migrations != 1 || o.res.Evictions != 0 {
		t.Fatalf("migrations/evictions = %d/%d, want 1/0", o.res.Migrations, o.res.Evictions)
	}
	if got := o.fleet.locate(1); got != 1 {
		t.Fatalf("drifted tenant on NIC %d, want 1", got)
	}
	if len(o.fleet.NICs[0].Tenants) != 1 {
		t.Fatalf("NIC 0 has %d tenants after migration, want 1", len(o.fleet.NICs[0].Tenants))
	}
}

func TestDriftEvictionWhenNoTarget(t *testing.T) {
	env := testEnv(t, nil)
	sc := Scenario{NICs: 1, Arrivals: 1, Seed: 1, NFs: testNFs}.WithDefaults()
	// Single-NIC fleet: the policy can only re-offer the breached NIC,
	// so the drifted tenant must be evicted.
	o, err := newOrchestrator(context.Background(), env, sc, &scriptSched{targets: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	o.fleet.place(0, Tenant{ID: 0, Arrival: placement.Arrival{Name: "NIDS", Profile: traffic.Default, SLA: 0}})
	o.fleet.place(0, Tenant{ID: 1, Arrival: placement.Arrival{Name: "FlowMonitor", Profile: traffic.Default, SLA: 0}})
	o.drift(1, traffic.Profile{Flows: 64000, PktSize: 512, MTBR: 1000})
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.res.Evictions != 1 || o.res.Migrations != 0 {
		t.Fatalf("evictions/migrations = %d/%d, want 1/0", o.res.Evictions, o.res.Migrations)
	}
	if got := o.fleet.locate(1); got != -1 {
		t.Fatalf("evicted tenant still resident on NIC %d", got)
	}
}

// stripLatencies zeroes the wall-clock fields so runs compare on
// placement outcomes alone.
func stripLatencies(rs []PolicyResult) []PolicyResult {
	out := append([]PolicyResult(nil), rs...)
	for i := range out {
		out[i].DecisionP50, out[i].DecisionP99 = 0, 0
	}
	return out
}

// TestHeterogeneousFleet checks class resolution end to end: per-class
// core budgets (including the capacity override), scenario totals, and a
// full comparison run over a mixed fleet.
func TestHeterogeneousFleet(t *testing.T) {
	env := testEnv(t, testModels(t))
	sc := Scenario{
		Classes: []ClassSpec{
			{Class: "bluefield2", Count: 2},
			{Class: "pensando", Count: 1},
			{Class: "bluefield2", Count: 1, Cores: 4},
		},
		Arrivals:  10,
		Seed:      3,
		NFs:       testNFs,
		Profiles:  2,
		DriftProb: 0.5,
	}.WithDefaults()
	if sc.NICs != 4 {
		t.Fatalf("WithDefaults derived %d NICs, want 4", sc.NICs)
	}
	f, err := env.ScenarioFleet(sc)
	if err != nil {
		t.Fatal(err)
	}
	wantCores := []int{8, 8, 16, 4}
	for i, n := range f.NICs {
		if n.Cores != wantCores[i] {
			t.Fatalf("NIC %d has %d cores, want %d", i, n.Cores, wantCores[i])
		}
	}
	if got := f.TotalCores(); got != 36 {
		t.Fatalf("fleet total cores %d, want 36", got)
	}
	// The scaled-down class must reject a second tenant (4 cores, 2 per NF
	// → one resident fills it at two).
	if !f.Fits(3) {
		t.Fatal("empty 4-core NIC should fit one NF")
	}
	f.place(3, Tenant{ID: 99, Arrival: placement.Arrival{Name: testNFs[0], Profile: traffic.Default, SLA: 0.5}})
	f.place(3, Tenant{ID: 100, Arrival: placement.Arrival{Name: testNFs[0], Profile: traffic.Default, SLA: 0.5}})
	if f.Fits(3) {
		t.Fatal("4-core NIC fit a third NF")
	}

	run := func() []PolicyResult {
		cmp, err := Run(context.Background(), testEnv(t, testModels(t)), sc, []string{"firstfit", "yala"})
		if err != nil {
			t.Fatal(err)
		}
		return stripLatencies(cmp.Results)
	}
	r1, r2 := run(), run()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("mixed-fleet run not deterministic:\n%+v\n%+v", r1[i], r2[i])
		}
		if got := r1[i].Admitted + r1[i].Rejected + r1[i].Rollbacks; got != sc.Arrivals {
			t.Fatalf("policy %s: admitted+rejected+rollbacks = %d, want %d", r1[i].Policy, got, sc.Arrivals)
		}
	}

	// Unknown classes fail validation and fleet construction.
	bad := sc
	bad.Classes = []ClassSpec{{Class: "connectx", Count: 1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown class validated")
	}
	if _, err := env.ScenarioFleet(bad); err == nil {
		t.Fatal("unknown class built a fleet")
	}
}

// TestRunStreamReplayIdentical asserts the core replay guarantee: a
// comparison over a scenario equals a comparison over its recorded
// stream, event for event, on a fresh environment.
func TestRunStreamReplayIdentical(t *testing.T) {
	models := testModels(t)
	sc := testScenario()
	policies := []string{"random", "firstfit", "yala"}
	direct, err := Run(context.Background(), testEnv(t, models), sc, policies)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := RunStream(context.Background(), testEnv(t, models), sc, sc.Stream(), policies)
	if err != nil {
		t.Fatal(err)
	}
	d, r := stripLatencies(direct.Results), stripLatencies(replayed.Results)
	for i := range d {
		if d[i] != r[i] {
			t.Fatalf("replay diverged for %s:\n direct %+v\n replay %+v", d[i].Policy, d[i], r[i])
		}
	}
}

func TestRunComparisonDeterministicAndAccounted(t *testing.T) {
	models := testModels(t)
	sc := testScenario()
	policies := []string{"random", "firstfit", "slomo", "yala"}

	run := func() []PolicyResult {
		cmp, err := Run(context.Background(), testEnv(t, models), sc, policies)
		if err != nil {
			t.Fatal(err)
		}
		return stripLatencies(cmp.Results)
	}
	r1, r2 := run(), run()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("policy %s not deterministic across envs:\n%+v\n%+v",
				r1[i].Policy, r1[i], r2[i])
		}
		if r1[i].Arrivals != sc.Arrivals {
			t.Fatalf("policy %s saw %d arrivals, want %d", r1[i].Policy, r1[i].Arrivals, sc.Arrivals)
		}
		if got := r1[i].Admitted + r1[i].Rejected + r1[i].Rollbacks; got != sc.Arrivals {
			t.Fatalf("policy %s: admitted+rejected+rollbacks = %d, want %d",
				r1[i].Policy, got, sc.Arrivals)
		}
	}
}
