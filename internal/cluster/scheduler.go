package cluster

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/sim"
)

// Scheduler decides where an arriving NF goes. Choose returns the index
// of the NIC to place a on, or -1 to reject the arrival. Implementations
// must be deterministic given their construction seed — the comparison's
// reproducibility rests on it.
type Scheduler interface {
	Name() string
	Choose(f *Fleet, a placement.Arrival) (int, error)
}

// Policies lists the available scheduling policies in comparison order:
// the contention-blind baselines first, then one prediction-guided
// best-fit policy per registered prediction backend (alphabetical, so
// the classic random/firstfit/slomo/yala order is stable).
func Policies() []string {
	return append([]string{"random", "firstfit"}, backend.Names()...)
}

// policyStrategy maps a prediction-guided policy name to its placement
// strategy; ok is false for the model-free policies.
func policyStrategy(policy string) (placement.Strategy, bool) {
	if _, ok := backend.Get(policy); !ok {
		return placement.Strategy{}, false
	}
	return placement.PredictionAware(policy), true
}

// NewScheduler constructs a policy over the environment. The seed only
// matters to randomized policies. Any registered prediction backend
// names a prediction-guided best-fit policy — a new backend becomes
// schedulable with no edits here.
func NewScheduler(policy string, env *Env, seed uint64) (Scheduler, error) {
	switch policy {
	case "random":
		return &randomFit{rng: sim.NewRNG(seed ^ 0x72616e646f6d)}, nil
	case "firstfit":
		return firstFit{}, nil
	}
	if strat, ok := policyStrategy(policy); ok {
		p := &predictFit{env: env, strat: strat, name: policy, types: map[backend.Key]int{}}
		if r := env.obsReg; r != nil {
			p.scanned = r.Counter("cluster_slots_scanned_total", "policy", policy)
			p.scored = r.Counter("cluster_slots_scored_total", "policy", policy)
			p.predictions = r.Counter("cluster_predictions_total", "policy", policy)
		}
		return p, nil
	}
	return nil, fmt.Errorf("cluster: unknown policy %q (have %v)", policy, Policies())
}

// randomFit places on a uniformly random NIC with core capacity —
// contention-blind, the scheduling floor.
type randomFit struct {
	rng *sim.RNG
}

func (r *randomFit) Name() string { return "random" }

func (r *randomFit) Choose(f *Fleet, a placement.Arrival) (int, error) {
	fitting := make([]int, 0, len(f.NICs))
	for i := range f.NICs {
		if f.Fits(i) {
			fitting = append(fitting, i)
		}
	}
	if len(fitting) == 0 {
		return -1, nil
	}
	return fitting[r.rng.Intn(len(fitting))], nil
}

// firstFit places on the lowest-indexed NIC with core capacity — the
// classic bin-packing heuristic, which concentrates load (and therefore
// contention) on the front of the fleet.
type firstFit struct{}

func (firstFit) Name() string { return "firstfit" }

func (firstFit) Choose(f *Fleet, a placement.Arrival) (int, error) {
	for i := range f.NICs {
		if f.Fits(i) {
			return i, nil
		}
	}
	return -1, nil
}

// predictFit is prediction-guided best-fit over a (possibly mixed)
// fleet: among NICs where the strategy's predictor deems the placement
// SLA-feasible on that NIC's hardware class, pick the tightest fit —
// fewest free cores, lowest index on ties — to consolidate load without
// breaching SLAs. No feasible NIC means the arrival is rejected
// outright: admission control in the paper's §7.5.1 sense, applied
// fleet-wide.
//
// A decision costs what changed, not the fleet. One cheap pass buckets
// the NICs with core capacity by free cores; candidates are then visited
// tightest first and the first feasible one wins, so looser NICs are
// never scored. A visit is answered at two levels. First the slot's
// memo: the SLA-independent placement.Score per arriving (NF, profile),
// finished by one compare against the arrival's own SLA. A slot's scores
// hold while the NIC's resident sequence equals the copied snapshot they
// were computed from and its class simulator's Generation is unchanged
// (no model install, promotion or solo recalibration since); anything
// else — a direct write to NIC.Tenants, a departure's in-place shift, a
// drift re-placing a tenant at the tail, another fleet's *NIC at that
// index — fails that compare and the slot is re-scored. The memo reads
// nothing but the *Fleet handed to Choose, so wrapping the scheduler
// cannot stale it. A re-scored slot then asks the class simulator, whose
// Score memoizes predictions by the ordered (NF, profile) sequence of
// residents plus newcomer: every NIC holding the same types in the same
// order shares one predictor run, whatever their residents' SLAs, so
// cluster_predictions_total counts only sequences new to the simulator.
//
// bench's cluster.choose_us_* rungs time cold Choose calls — each is a
// never-seen (fleet, arrival type) pair for the slot memo — so they show
// the slot-miss path plus the early exit. Their half-loaded fleets repeat
// a short resident cycle, so past the first few NICs the simulator's
// sequence memo answers; the 16-NIC rung is mostly sequence misses.
type predictFit struct {
	env   *Env
	strat placement.Strategy
	name  string
	// scanned and scored are the policy's cluster_slots_*_total series,
	// predictions its cluster_predictions_total, resolved once at
	// construction; nil without a registry.
	scanned, scored, predictions *obs.Counter

	slots []slotMemo // by NIC index
	// types numbers the arrival types seen — (NF, profile) is all a Score
	// depends on from the arrival — to index each slot's scores.
	types  map[backend.Key]int
	byFree [][]int  // fitting NIC indices by free cores, reused per decision
	names  []string // ensureModels argument, reused per miss
}

// slotMemo is one NIC's scores and what they were computed from.
type slotMemo struct {
	nic    *NIC
	ce     *classEnv
	gen    uint64
	seq    []placement.Arrival
	scores []knownScore // by arrival-type index
}

// knownScore is a Score slot; the zero value is "not scored yet".
type knownScore struct {
	placement.Score
	known bool
}

func (p *predictFit) Name() string { return p.name }

func (p *predictFit) Choose(f *Fleet, a placement.Arrival) (int, error) {
	scored := 0
	defer func() {
		if p.scanned != nil {
			p.scanned.Add(uint64(len(f.NICs)))
			p.scored.Add(uint64(scored))
		}
	}()
	if len(p.slots) != len(f.NICs) {
		p.slots = make([]slotMemo, len(f.NICs))
	}
	for free := range p.byFree {
		p.byFree[free] = p.byFree[free][:0]
	}
	for i := range f.NICs {
		if !f.Fits(i) {
			continue
		}
		free := f.FreeCores(i)
		for len(p.byFree) <= free {
			p.byFree = append(p.byFree, nil)
		}
		p.byFree[free] = append(p.byFree[free], i)
	}
	// One hash per decision; visited slots then index by it.
	key := backend.Key{NF: a.Name, Profile: a.Profile}
	ti, ok := p.types[key]
	if !ok {
		ti = len(p.types)
		p.types[key] = ti
	}
	for _, bucket := range p.byFree {
		for _, i := range bucket {
			// An empty NIC is feasible by construction — alone, the NF
			// runs at its solo throughput — so no prediction is consulted.
			if len(f.NICs[i].Tenants) == 0 {
				return i, nil
			}
			sc, fresh, err := p.score(&p.slots[i], f.NICs[i], a, ti)
			if err != nil {
				return -1, err
			}
			if fresh {
				scored++
			}
			if sc.Admits(a.SLA) {
				return i, nil
			}
		}
	}
	return -1, nil
}

// score answers one occupied NIC from its memo, re-deriving whatever the
// memo no longer covers; fresh reports that a predictor ran.
func (p *predictFit) score(m *slotMemo, n *NIC, a placement.Arrival, ti int) (sc placement.Score, fresh bool, err error) {
	if m.nic != n {
		ce, ok := p.env.class[n.key]
		if !ok {
			return sc, false, fmt.Errorf("cluster: NIC %d has unresolved class %q", n.ID, n.Class)
		}
		m.nic, m.ce, m.seq = n, ce, m.seq[:0]
		clear(m.scores)
	}
	// The class simulator's own core budget gates like the fleet's (they
	// agree by construction) and is never memoized.
	if !m.ce.sim.Fits(len(n.Tenants)) {
		return sc, false, nil
	}
	if ti < len(m.scores) && m.scores[ti].known && m.current(n) {
		return m.scores[ti].Score, false, nil
	}
	p.names = append(p.names[:0], a.Name)
	for _, t := range n.Tenants {
		p.names = append(p.names, t.Name)
	}
	if err := p.env.ensureModels(m.ce, p.strat, p.names); err != nil {
		return sc, false, err
	}
	// Compared only now: a lazy model install above moves the generation.
	if !m.current(n) {
		m.gen, m.seq = m.ce.sim.Generation(), m.seq[:0]
		for _, t := range n.Tenants {
			m.seq = append(m.seq, t.Arrival)
		}
		clear(m.scores)
	}
	ran := m.ce.sim.Predictions()
	sc, err = m.ce.sim.Score(m.seq, a, p.strat)
	if p.predictions != nil {
		p.predictions.Add(m.ce.sim.Predictions() - ran)
	}
	if err != nil {
		return sc, false, err
	}
	for len(m.scores) <= ti {
		m.scores = append(m.scores, knownScore{})
	}
	m.scores[ti] = knownScore{sc, true}
	return sc, true, nil
}

// current reports whether the memo's scores still describe n: same model
// generation, same resident sequence.
func (m *slotMemo) current(n *NIC) bool {
	if m.gen != m.ce.sim.Generation() || len(m.seq) != len(n.Tenants) {
		return false
	}
	for j, r := range m.seq {
		if r != n.Tenants[j].Arrival {
			return false
		}
	}
	return true
}
