// Package cluster is the fleet-scale orchestration layer over the
// prediction stack: it manages tens to hundreds of simulated SmartNICs
// and schedules a continuous, churning stream of NF arrivals, departures
// and traffic-profile drift against them.
//
// The paper's placement use case (§7.5.1) evaluates one NIC-pool and one
// arrival batch at a time; the interesting behavior of a real deployment
// — load skew, churn, rebalancing under drift — only emerges at cluster
// scale. This package supplies that scenario space:
//
//   - Fleet tracks per-NIC resident sets and core budgets, across mixed
//     hardware classes (ClassSpec/NICClass): each class has its own
//     ground-truth simulator, core budget, and per-class model set,
//     loaded through the hardware-keyed ModelSource.
//   - Scenario generates a deterministic lifecycle stream (TenantSpec:
//     arrivals with lifetimes and drift) from a seed under one of several
//     workload generators — exponential churn, diurnal wave, flash-crowd
//     burst, heavy-tail tenant mix — replayed identically against every
//     policy, and recordable/replayable through internal/trace.
//   - Scheduler is the pluggable placement policy: random, first-fit,
//     and prediction-guided best-fit driven by Yala or SLOMO models. A
//     guided decision costs what changed since the last one, not the
//     fleet. The Fleet owns its mutations: it files its fitting NICs by
//     free cores and stamps a NIC with a new version on every place and
//     remove, so a decision walks that index tightest first until a
//     NIC is feasible, and each NIC keeps its SLA-independent
//     placement.Score per arrival type for as long as its residents and
//     its class's model generation stand — proven by the version alone
//     while it holds (see Fleet and predictFit).
//   - The orchestrator (Env.RunPolicyStream) replays a stream on sim.Engine,
//     enforces SLAs against simulator ground truth (a placement that
//     immediately breaches an SLA is rolled back), migrates tenants whose
//     drift pushes a NIC out of feasibility, and accounts violations,
//     utilization and decision latency.
//   - Run compares several policies on one shared environment and
//     renders the comparison table `yala cluster` prints; RunStream does
//     the same over an externally supplied (recorded) stream.
package cluster

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/backend"
	"repro/internal/feedback"
	"repro/internal/nf"
	"repro/internal/nicsim"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/testbed"
)

// ModelSource supplies per-NF prediction models to the schedulers, keyed
// by backend and hardware class — the seam between the orchestrator and
// the serving layer. A source resolves what a class name means itself:
// in production serve.ModelRegistry implements it over ClassConfig
// (models load once per (backend, class, NF) and are shared by every
// policy in a comparison); tests may supply pre-built maps. The empty
// class is the source's default hardware.
type ModelSource interface {
	ModelOn(backendName, class, name string) (backend.Model, error)
}

// MapModels is a static ModelSource over pre-built model handles, keyed
// backend name → NF name. It is class-agnostic: every hardware class is
// served the same per-NF model (fine for tests, which assert
// orchestration rather than accuracy).
type MapModels map[string]map[string]backend.Model

// ModelOn returns the mapped model, whatever the class.
func (m MapModels) ModelOn(backendName, class, name string) (backend.Model, error) {
	if mm, ok := m[backendName][name]; ok {
		return mm, nil
	}
	return nil, fmt.Errorf("cluster: no %s model for %s", backendName, name)
}

// Tenant is one admitted NF instance: the arrival it came from plus the
// stream-unique ID lifecycle events are keyed on.
type Tenant struct {
	ID int
	placement.Arrival
}

// NIC is one fleet member's state: its hardware class, per-NIC core
// budget, and the tenants currently resident on it.
//
// Read Tenants freely. Fill it by hand only before the fleet's first
// Choose; from then on the Fleet's own place and remove are its only
// writers (see Fleet).
type NIC struct {
	ID int
	// Class names the hardware class ("" = the environment's base
	// preset); Cores is this NIC's core budget (the class preset's,
	// unless the scenario scaled it).
	Class   string
	Cores   int
	Tenants []Tenant

	// key resolves this NIC's class environment (simulator + models).
	key classKey
}

// arrivals projects the resident set into the placement package's form.
func (n *NIC) arrivals() []placement.Arrival {
	out := make([]placement.Arrival, len(n.Tenants))
	for i, t := range n.Tenants {
		out[i] = t.Arrival
	}
	return out
}

// Fleet is the mutable cluster state a scheduler decides over.
//
// The fleet owns its mutations. A caller may fill NIC.Tenants by hand
// while setting a fleet up, before its first Choose; the first Choose
// builds the free-core index from whatever Tenants hold then. From then
// on NICs is fixed, and place and remove are the only mutators: each
// moves one NIC within the index and stamps it with a new version, so
// while a NIC's stamp holds its residents are known unchanged and a
// scheduler's memo of it needs no check. A direct write after the first
// Choose is invisible to both.
type Fleet struct {
	// NICs carry their own core totals (classes differ); every NF takes
	// nf.NFCores of them, as in the placement feasibility checks.
	NICs []*NIC

	// home maps each tenant placed through place to its NIC index — the
	// orchestrator's O(1) locate, and (tenant IDs being stream-unique)
	// its resident count. Tenants filled in by hand before the first
	// Choose are not in it; after that place and remove are the only
	// writers, so it holds every tenant placed since.
	home map[int]int

	// ix is the free-core index; nil until the first Choose.
	ix *fleetIndex
}

// fleetIndex files every NIC with room for one more NF under its
// free-core count, so a best-fit walk visits fitting NICs in (free
// cores, index) order without looking at the rest. Membership changes
// locally: place and remove move one bit.
type fleetIndex struct {
	// fits[c] is the bitmap (by NIC index) of fitting NICs with exactly
	// c free cores, count[c] its population; empty marks the NICs that
	// hold no tenant.
	fits  [][]uint64
	count []int
	empty []uint64
	// ver stamps each NIC's resident sequence: a fleet-wide counter,
	// drawn anew by every place and remove, so a stamp names one state.
	ver   []uint64
	clock uint64
}

// ScenarioFleet builds the scenario's (possibly heterogeneous) fleet,
// resolving each class's simulator so per-NIC budgets agree with
// feasibility checks.
func (e *Env) ScenarioFleet(sc Scenario) (*Fleet, error) {
	f := &Fleet{home: map[int]int{}}
	for _, slot := range sc.classSlots() {
		ce, err := e.classEnv(slot)
		if err != nil {
			return nil, err
		}
		for i := 0; i < slot.Count; i++ {
			f.NICs = append(f.NICs, &NIC{
				ID:    len(f.NICs),
				Class: slot.Class,
				Cores: ce.sim.NICCores,
				key:   ce.key,
			})
		}
	}
	return f, nil
}

// Fits reports whether NIC i has the core budget for one more NF.
func (f *Fleet) Fits(i int) bool {
	return (len(f.NICs[i].Tenants)+1)*nf.NFCores <= f.NICs[i].Cores
}

// FreeCores is NIC i's unallocated core count.
func (f *Fleet) FreeCores(i int) int {
	return f.NICs[i].Cores - len(f.NICs[i].Tenants)*nf.NFCores
}

// TotalCores is the fleet-wide core budget across all classes.
func (f *Fleet) TotalCores() int {
	total := 0
	for _, n := range f.NICs {
		total += n.Cores
	}
	return total
}

// place adds a tenant to NIC i.
func (f *Fleet) place(i int, t Tenant) {
	f.file(i, false)
	f.NICs[i].Tenants = append(f.NICs[i].Tenants, t)
	f.home[t.ID] = i
	f.file(i, true)
}

// remove deletes the tenant by ID from NIC i, reporting the removed
// tenant and whether it was resident.
func (f *Fleet) remove(i, id int) (Tenant, bool) {
	n := f.NICs[i]
	for j, t := range n.Tenants {
		if t.ID == id {
			f.file(i, false)
			n.Tenants = append(n.Tenants[:j], n.Tenants[j+1:]...)
			delete(f.home, id)
			f.file(i, true)
			return t, true
		}
	}
	return Tenant{}, false
}

// index returns the free-core index, building it from the NICs' current
// Tenants on first use.
func (f *Fleet) index() *fleetIndex {
	if f.ix != nil {
		return f.ix
	}
	words := (len(f.NICs) + 63) / 64
	ix := &fleetIndex{empty: make([]uint64, words), ver: make([]uint64, len(f.NICs))}
	for _, n := range f.NICs {
		for len(ix.fits) <= n.Cores {
			ix.fits = append(ix.fits, make([]uint64, words))
			ix.count = append(ix.count, 0)
		}
	}
	f.ix = ix
	for i := range f.NICs {
		f.file(i, true)
	}
	return ix
}

// file takes NIC i out of the index (in=false) or files it under its
// current free cores with a new version stamp (in=true). Before the
// first Choose there is no index and nothing to do.
func (f *Fleet) file(i int, in bool) {
	ix := f.ix
	if ix == nil {
		return
	}
	w, bit := i>>6, uint64(1)<<(i&63)
	if !in {
		if f.Fits(i) {
			c := f.FreeCores(i)
			ix.fits[c][w] &^= bit
			ix.count[c]--
		}
		ix.empty[w] &^= bit
		return
	}
	ix.clock++
	ix.ver[i] = ix.clock
	if f.Fits(i) {
		c := f.FreeCores(i)
		ix.fits[c][w] |= bit
		ix.count[c]++
	}
	if len(f.NICs[i].Tenants) == 0 {
		ix.empty[w] |= bit
	}
}

// locate finds the NIC hosting tenant id, or -1: lifecycle events may
// outlive their tenant (an SLA eviction beats a scheduled departure).
func (f *Fleet) locate(id int) int {
	if i, ok := f.home[id]; ok {
		return i
	}
	return -1
}

// classKey identifies one class environment: the class name plus any
// core-budget override (two overrides of the same class are distinct
// capacity configurations).
type classKey struct {
	name  string
	cores int
}

// classEnv is one hardware class's slice of the environment: its
// preset, its ground-truth/feasibility simulator (with per-class
// solo/co-run caches), and its per-class model set inside the simulator.
type classEnv struct {
	key classKey
	cfg nicsim.Config
	sim *placement.Simulator
}

// Env binds the shared pieces one comparison run needs: per-class
// placement simulators (ground truth plus prediction-side feasibility,
// with their solo/co-run measurement caches) and the hardware-keyed
// model source. Sharing one Env across policies evaluates every policy
// against identical cached measurements and loads each (class, NF) model
// exactly once.
type Env struct {
	// Sim is the base-class simulator — the one a homogeneous default
	// fleet runs on. Exposed so callers and tests can seed caches or
	// adjust core budgets.
	Sim    *placement.Simulator
	Models ModelSource

	// Feedback optionally tunes the online loop's drift gate (window
	// size, warmup floor, promotion evidence). Train, Promote and
	// Synchronous are owned by the orchestrator and overwritten; nil
	// selects cluster-scale defaults.
	Feedback *feedback.Config
	// TrainOptions optionally supplies backend-specific training options
	// for online-mode retraining (nil selects each backend's quick
	// default). Tests and benches pass minimal-cost configurations here.
	TrainOptions func(backendName string) any

	base  nicsim.Config
	seed  uint64
	class map[classKey]*classEnv
	// shift caches the post-shift ground-truth environments: one
	// frequency-scaled simulator per (class, scale), shared by every
	// policy run on this Env so shifted co-run measurements are taken
	// once.
	shift map[shiftKey]*classEnv

	// obsReg, when installed via SetObs, receives scheduler telemetry:
	// per-policy decision-latency histograms and candidate-slot counters
	// — the signal that makes decision cost attributable per policy
	// (and, with the slots-scanned counter, provable as O(changed
	// slots) rather than O(fleet)). Nil keeps the scheduler free of any
	// metric overhead for library callers.
	obsReg *obs.Registry
}

// NewEnv builds an environment on a fresh testbed at the given NIC
// preset and seed.
func NewEnv(cfg nicsim.Config, seed uint64, models ModelSource) *Env {
	e := &Env{
		Models: models,
		base:   cfg,
		seed:   seed,
		class:  map[classKey]*classEnv{},
		shift:  map[shiftKey]*classEnv{},
	}
	base := &classEnv{
		key: classKey{},
		cfg: cfg,
		sim: placement.NewSimulator(testbed.New(cfg, seed)),
	}
	e.class[base.key] = base
	e.Sim = base.sim
	return e
}

// SetObs installs a metric registry for scheduler telemetry. The serve
// layer passes its own registry so cluster_* series appear in the
// server's /metrics exposition; nil (the default) disables recording.
// Schedulers and runs resolve their series when constructed, so install
// the registry first.
func (e *Env) SetObs(r *obs.Registry) { e.obsReg = r }

// sortedClassKeys returns every class environment's key ordered by
// (name, cores) — the deterministic way to walk e.class, which replay
// determinism forbids ranging over directly.
func (e *Env) sortedClassKeys() []classKey {
	keys := make([]classKey, 0, len(e.class))
	for key := range e.class {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].cores < keys[j].cores
	})
	return keys
}

// classEnv resolves (building on first use) the environment slice for
// one class spec.
func (e *Env) classEnv(spec ClassSpec) (*classEnv, error) {
	key := classKey{name: spec.Class, cores: spec.Cores}
	if ce, ok := e.class[key]; ok {
		return ce, nil
	}
	cfg := e.base
	if spec.Class != "" {
		var err error
		cfg, err = ClassConfig(spec.Class)
		if err != nil {
			return nil, err
		}
	}
	sim := placement.NewSimulator(testbed.New(cfg, e.seed))
	// Capacity scaling adjusts the scheduling budget only; ground truth
	// and models stay on the stock preset.
	if spec.Cores > 0 {
		sim.NICCores = spec.Cores
	}
	ce := &classEnv{key: key, cfg: cfg, sim: sim}
	e.class[key] = ce
	return ce, nil
}

// simFor returns the simulator governing one fleet NIC.
func (e *Env) simFor(n *NIC) *placement.Simulator {
	if ce, ok := e.class[n.key]; ok {
		return ce.sim
	}
	return e.Sim
}

// shiftKey identifies one post-shift ground-truth environment: the
// class it shifted from plus the frequency factor applied.
type shiftKey struct {
	class classKey
	scale float64
}

// shiftedEnv resolves (building on first use) the post-shift
// ground-truth environment for one class: the class's hardware preset
// under a DVFS governor at scale times its nominal frequency, with its
// own solo/co-run caches. Enforcement consults it after the scenario's
// shift time; the prediction-side class simulator is untouched — that
// gap is exactly what the online feedback loop has to close.
func (e *Env) shiftedEnv(key classKey, scale float64) *classEnv {
	sk := shiftKey{class: key, scale: scale}
	if ce, ok := e.shift[sk]; ok {
		return ce
	}
	base, ok := e.class[key]
	if !ok {
		base = e.class[classKey{}]
	}
	cfg := base.cfg.ScaleFrequency(scale)
	sim := placement.NewSimulator(testbed.New(cfg, e.seed))
	sim.NICCores = base.sim.NICCores
	ce := &classEnv{key: key, cfg: cfg, sim: sim}
	e.shift[sk] = ce
	return ce
}

// fresh clones the environment's immutable configuration into a new Env
// with empty caches and model sets. Online-mode runs mutate per-class
// model sets and solo baselines (that is the point of promotion), so a
// comparison gives each policy a fresh clone rather than sharing one
// contaminated environment.
func (e *Env) fresh() *Env {
	ne := NewEnv(e.base, e.seed, e.Models)
	ne.Sim.NICCores = e.Sim.NICCores
	ne.Feedback = e.Feedback
	ne.TrainOptions = e.TrainOptions
	ne.obsReg = e.obsReg
	return ne
}

// ensureModels pulls the named NFs' models for the strategy's backend
// from the model source into a class's simulator, once per (backend,
// class, name). Model-free strategies are a no-op.
func (e *Env) ensureModels(ce *classEnv, strat placement.Strategy, names []string) error {
	bname := strat.Backend()
	if bname == "" {
		return nil
	}
	for _, name := range names {
		if ce.sim.HasModel(bname, name) {
			continue
		}
		m, err := e.Models.ModelOn(bname, ce.key.name, name)
		if err != nil {
			return err
		}
		ce.sim.SetModel(bname, name, m)
	}
	return nil
}

// Prewarm loads every model the named policies will consult — per
// hardware class — and seeds each class simulator's solo-measurement
// cache for the scenario's (NF, profile) pool. Decisions during the run
// then measure scheduling, not lazy model training or first-touch
// measurements — and every policy starts from identical cache state.
//
// The pool's footprints do not depend on the order they are measured
// in, so each class measures them in one testbed batch across cores.
// The solo runs do (the testbed numbers runs in call order), so they
// stay one serial loop in NF-then-profile order, and any measurement
// error surfaces from that loop in the same order. The context cancels
// the warm-up between models and measurements.
func (e *Env) Prewarm(ctx context.Context, sc Scenario, policies []string) error {
	sc = sc.WithDefaults()
	pool := sc.ProfilePool()
	for _, slot := range sc.classSlots() {
		ce, err := e.classEnv(slot)
		if err != nil {
			return err
		}
		for _, p := range policies {
			if err := ctx.Err(); err != nil {
				return err
			}
			if strat, ok := policyStrategy(p); ok {
				if err := e.ensureModels(ce, strat, sc.NFs); err != nil {
					return err
				}
			}
		}
		if err := ce.sim.TB.WarmWorkloads(ctx, sc.NFs, pool); err != nil {
			return err
		}
		for _, name := range sc.NFs {
			for _, prof := range pool {
				if err := ctx.Err(); err != nil {
					return err
				}
				a := placement.Arrival{Name: name, Profile: prof}
				m, err := ce.sim.TB.SoloNF(name, prof)
				if err != nil {
					return err
				}
				ce.sim.SeedSolo(a, m)
			}
		}
	}
	return nil
}
