package cluster

import (
	"fmt"
	"math/bits"
	"slices"

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
// A decision costs what changed, not the fleet. The Fleet keeps its
// fitting NICs filed by free cores (see Fleet), so Choose walks them
// tightest first straight off that index, and the first feasible one
// wins: looser NICs are never visited, and no NIC is looked at just to
// be bucketed. A visited NIC is answered at two levels. First the
// slot's memo: the SLA-independent placement.Score per arriving (NF,
// profile), finished by one compare against the arrival's own SLA. A
// slot's scores hold while its NIC pointer, its class simulator's
// Generation (no model install, promotion or solo recalibration since)
// and the NIC's resident sequence are unchanged. The NIC's version
// stamp proves the sequence unchanged without looking at it: it moves
// with every place and remove, so only a slot whose stamp moved compares
// the residents with the copy its scores were computed from. A NIC that
// churned back to that sequence — an arrival and its departure, a drift
// that left the tail tenant as it was — keeps its scores; any other
// change, and another fleet's *NIC at that index, re-scores the slot.
// That is why the Fleet's methods must be its only mutators after the
// first Choose: a write to NIC.Tenants by hand would leave the stamp,
// and the memo, standing. The memo reads nothing but the *Fleet handed
// to Choose, so wrapping the scheduler cannot stale it. A re-scored slot
// then asks the class simulator, whose Score memoizes predictions by the
// ordered (NF, profile) sequence of residents plus newcomer: every NIC
// holding the same types in the same order shares one predictor run,
// whatever their residents' SLAs, so cluster_predictions_total counts
// only sequences new to the simulator. cluster_slots_scanned_total
// counts the NICs a walk visits.
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

	// bound is the fleet index the slots were last checked against: a
	// fleet's NICs are fixed once it has an index, so their pointers are
	// compared only when Choose meets another index.
	bound *fleetIndex
	slots []slotMemo // by NIC index
	// types numbers the arrival types seen — (NF, profile) is all a Score
	// depends on from the arrival — to index scores.
	types map[backend.Key]int
	// scores holds the memoized scores by arrival type, then NIC index:
	// one decision reads one row.
	scores [][]memoScore
	// classes are the class environments the slots resolved to; gens
	// their simulators' generations, read once per decision, and ready
	// whether this decision's newcomer has its model in each.
	classes []*classEnv
	gens    []uint64
	ready   []bool
	names   []string // ensureModels argument, reused per miss
}

// slotMemo is what one NIC's scores were computed from. seq and gen are
// the resident sequence and class generation, confirmed current at NIC
// version ver; epoch numbers the (NIC, seq, gen) states the slot has
// held, and a score holds while its epoch is the slot's. ready is the
// epoch whose residents' models are known installed (models are never
// uninstalled). class is -1 until the slot is first scored.
type slotMemo struct {
	nic          *NIC
	class        int
	seq          []placement.Arrival
	ver, gen     uint64
	epoch, ready uint64
}

// memoScore is one slot's placement.Score for one arrival type, and the
// slot epoch it was computed in. Epoch 0 never matches: binding a slot
// to a NIC moves its epoch past 0.
type memoScore struct {
	epoch uint64
	placement.Score
}

func (p *predictFit) Name() string { return p.name }

func (p *predictFit) Choose(f *Fleet, a placement.Arrival) (int, error) {
	visited, scored := 0, 0
	defer func() {
		if p.scanned != nil {
			p.scanned.Add(uint64(visited))
			p.scored.Add(uint64(scored))
		}
	}()
	ix := f.index()
	if p.bound != ix {
		p.bind(f, ix)
	}
	// One hash per decision; visited slots then index by it.
	key := backend.Key{NF: a.Name, Profile: a.Profile}
	ti, ok := p.types[key]
	if !ok {
		ti = len(p.types)
		p.types[key] = ti
		p.scores = append(p.scores, nil)
	}
	if p.scores[ti] == nil {
		p.scores[ti] = make([]memoScore, len(f.NICs))
	}
	row := p.scores[ti]
	for k, ce := range p.classes {
		p.gens[k], p.ready[k] = ce.sim.Generation(), false
	}
	for c, words := range ix.fits {
		if ix.count[c] == 0 {
			continue
		}
		for w, word := range words {
			empty := ix.empty[w]
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				i := w<<6 | b
				visited++
				// An empty NIC is feasible by construction — alone, the NF
				// runs at its solo throughput — so no prediction is consulted.
				if empty&(1<<b) != 0 {
					return i, nil
				}
				s := &p.slots[i]
				if s.ver != ix.ver[i] || s.class < 0 || s.gen != p.gens[s.class] {
					if err := p.confirm(s, ix.ver[i]); err != nil {
						return -1, err
					}
				}
				m := &row[i]
				if m.epoch != s.epoch {
					fresh, err := p.score(m, s, a)
					if err != nil {
						return -1, err
					}
					if fresh {
						scored++
					}
				}
				if m.Admits(a.SLA) {
					return i, nil
				}
			}
		}
	}
	return -1, nil
}

// bind checks every slot against the fleet's NICs, starting a new epoch
// for each slot that held another NIC.
func (p *predictFit) bind(f *Fleet, ix *fleetIndex) {
	if len(p.slots) != len(f.NICs) {
		p.slots = make([]slotMemo, len(f.NICs))
		clear(p.scores)
	}
	for i, n := range f.NICs {
		if s := &p.slots[i]; s.nic != n {
			*s = slotMemo{nic: n, class: -1, seq: s.seq[:0], epoch: s.epoch + 1}
		}
	}
	p.bound = ix
}

// confirm brings slot s up to NIC version ver: it resolves the slot's
// class on first use and starts a new epoch, with a fresh copy of the
// residents, unless the sequence and generation its scores came from
// still hold.
func (p *predictFit) confirm(s *slotMemo, ver uint64) error {
	n := s.nic
	if s.class < 0 {
		ce, ok := p.env.class[n.key]
		if !ok {
			return fmt.Errorf("cluster: NIC %d has unresolved class %q", n.ID, n.Class)
		}
		s.class = slices.Index(p.classes, ce)
		if s.class < 0 {
			s.class = len(p.classes)
			p.classes = append(p.classes, ce)
			p.gens = append(p.gens, ce.sim.Generation())
			p.ready = append(p.ready, false)
		}
	}
	if s.gen != p.gens[s.class] || !sameResidents(s.seq, n.Tenants) {
		s.seq = s.seq[:0]
		for _, t := range n.Tenants {
			s.seq = append(s.seq, t.Arrival)
		}
		s.gen = p.gens[s.class]
		s.epoch++
	}
	s.ver = ver
	return nil
}

// sameResidents reports whether seq is the arrival sequence of ts.
func sameResidents(seq []placement.Arrival, ts []Tenant) bool {
	if len(seq) != len(ts) {
		return false
	}
	for j := range seq {
		if seq[j] != ts[j].Arrival {
			return false
		}
	}
	return true
}

// score re-derives slot s's score for a into m; fresh reports that a
// predictor ran. A NIC its class simulator's own core budget refuses
// leaves m unadmitting and unmemoized (the budgets agree by
// construction). The models Score needs are installed first, newcomer
// then residents, each set checked once: the newcomer's per class per
// decision, the residents' per slot epoch.
func (p *predictFit) score(m *memoScore, s *slotMemo, a placement.Arrival) (fresh bool, err error) {
	*m = memoScore{}
	ce := p.classes[s.class]
	if !ce.sim.Fits(len(s.seq)) {
		return false, nil
	}
	if !p.ready[s.class] {
		p.names = append(p.names[:0], a.Name)
		if err := p.env.ensureModels(ce, p.strat, p.names); err != nil {
			return false, err
		}
		p.ready[s.class] = true
	}
	if s.ready != s.epoch {
		p.names = p.names[:0]
		for _, r := range s.seq {
			p.names = append(p.names, r.Name)
		}
		if err := p.env.ensureModels(ce, p.strat, p.names); err != nil {
			return false, err
		}
	}
	// Compared only now: a lazy model install above moves the generation.
	if gen := ce.sim.Generation(); gen != s.gen {
		p.gens[s.class], s.gen = gen, gen
		s.epoch++
	}
	s.ready = s.epoch
	ran := ce.sim.Predictions()
	sc, err := ce.sim.Score(s.seq, a, p.strat)
	if p.predictions != nil {
		p.predictions.Add(ce.sim.Predictions() - ran)
	}
	if err != nil {
		return false, err
	}
	*m = memoScore{epoch: s.epoch, Score: sc}
	return true, nil
}
