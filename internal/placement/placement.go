// Package placement implements the paper's first use case (§7.5.1):
// online, contention-aware scheduling of arriving NFs onto a cluster of
// SmartNICs so as to minimize NICs used while meeting throughput SLAs.
//
// Strategies: Monopolization (one NF per NIC), Greedy (most free cores),
// and contention-aware placement driven by any registered prediction
// backend (PredictionAware; YalaAware and SLOMOAware are the built-in
// instances). An Oracle strategy that checks feasibility with actual
// co-runs stands in for the paper's exhaustive-search optimum (offline
// bin packing is NP-complete; the paper also compares against a
// search-based reference). Prediction models reach this package only
// through the internal/backend interface — the simulator holds opaque
// handles keyed (backend, NF) and never inspects them.
package placement

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/backend"
	"repro/internal/nf"
	"repro/internal/nicsim"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

// Arrival is one NF arrival: a catalog NF with its traffic profile and an
// SLA expressed as the maximum tolerated throughput drop relative to solo
// (e.g. 0.1 = may lose at most 10%).
type Arrival struct {
	Name    string
	Profile traffic.Profile
	SLA     float64
}

// stratKind discriminates the placement policy families.
type stratKind int

const (
	kindMonopolization stratKind = iota
	kindGreedy
	kindPredict
	kindOracle
)

// Strategy selects a placement policy. The zero value is Monopolization.
// Strategies are comparable values: the built-in ones below, plus one
// PredictionAware instance per prediction backend.
type Strategy struct {
	kind stratKind
	// backend names the prediction backend a kindPredict strategy
	// consults; empty for the model-free strategies.
	backend string
}

// Placement strategies, in the order of the paper's Table 6.
var (
	Monopolization = Strategy{kind: kindMonopolization}
	Greedy         = Strategy{kind: kindGreedy}
	SLOMOAware     = PredictionAware("slomo")
	YalaAware      = PredictionAware("yala")
	Oracle         = Strategy{kind: kindOracle}
)

// PredictionAware is contention-aware placement guided by the named
// prediction backend: place an arrival on a NIC only when the backend's
// models predict every resident (including the newcomer) stays within
// its SLA.
func PredictionAware(backendName string) Strategy {
	return Strategy{kind: kindPredict, backend: backendName}
}

// Backend names the prediction backend a PredictionAware strategy
// consults; empty for the model-free strategies.
func (s Strategy) Backend() string { return s.backend }

// String names the strategy.
func (s Strategy) String() string {
	switch s.kind {
	case kindMonopolization:
		return "monopolization"
	case kindGreedy:
		return "greedy"
	case kindPredict:
		return s.backend
	case kindOracle:
		return "oracle"
	}
	return fmt.Sprintf("strategy(%d)", int(s.kind))
}

// Result summarizes one placed sequence.
type Result struct {
	NICsUsed   int
	Violations int // NFs whose ground-truth throughput violates their SLA
	Total      int
}

// Simulator places NF arrival sequences under a strategy and evaluates
// the outcome against simulator ground truth.
type Simulator struct {
	TB *testbed.Testbed

	// NICCores is the per-NIC core total; each NF takes nf.NFCores.
	NICCores int

	// models holds the prediction handles the prediction-aware
	// strategies consult, keyed backend name → NF name. Opaque: only the
	// owning backend ever looks inside.
	models map[string]map[string]backend.Model
	// gen counts SetModel and SeedSolo calls — the only ways a
	// prediction-side input changes under a fixed resident sequence.
	gen uint64
	// scorers holds one evaluator per prediction backend. Its sequence
	// memo only caches predictions from the installed models and solos,
	// so it lives until gen moves.
	scorers map[string]*scorer
	// predictions counts the backend evaluations Score has run.
	predictions uint64

	// soloCache is struct-keyed: rendering a string key per lookup would
	// dominate tight scheduling loops.
	soloCache  map[backend.Key]*nicsim.Measurement
	coRunCache map[string][]nicsim.Measurement
}

// NewSimulator returns a placement simulator. Prediction-aware
// strategies additionally need models supplied through SetModel.
func NewSimulator(tb *testbed.Testbed) *Simulator {
	return &Simulator{
		TB:         tb,
		NICCores:   tb.Config().Cores,
		models:     map[string]map[string]backend.Model{},
		scorers:    map[string]*scorer{},
		soloCache:  map[backend.Key]*nicsim.Measurement{},
		coRunCache: map[string][]nicsim.Measurement{},
	}
}

// SetModel installs the backend's model for one NF.
func (s *Simulator) SetModel(backendName, nf string, m backend.Model) {
	byNF, ok := s.models[backendName]
	if !ok {
		byNF = map[string]backend.Model{}
		s.models[backendName] = byNF
	}
	byNF[nf] = m
	s.gen++
}

// Generation stamps the prediction-side state Score reads: it moves on
// every SetModel and SeedSolo (lazy model install, online promotion,
// solo recalibration) and on nothing else.
func (s *Simulator) Generation() uint64 { return s.gen }

// Predictions counts the backend evaluations Score has actually run —
// one per member it could not answer from its memo.
func (s *Simulator) Predictions() uint64 { return s.predictions }

// HasModel reports whether the backend's model for an NF is installed.
func (s *Simulator) HasModel(backendName, nf string) bool {
	_, ok := s.models[backendName][nf]
	return ok
}

// Model returns the installed handle, or an error naming the gap.
func (s *Simulator) Model(backendName, nf string) (backend.Model, error) {
	m, ok := s.models[backendName][nf]
	if !ok {
		return nil, fmt.Errorf("placement: no %s model for %s", backendName, nf)
	}
	return m, nil
}

// arrivalKey renders one resident for the co-run memo key:
// "name@(f, p, m)", the profile as traffic.Profile.AppendText prints it.
func arrivalKey(a Arrival) string {
	return string(a.Profile.AppendText(append(append(make([]byte, 0, 48), a.Name...), '@')))
}

// solo returns the cached solo measurement for an arrival. The pointer
// is stable for the simulator's lifetime, so prediction scenarios can
// share it without copying.
func (s *Simulator) solo(a Arrival) (*nicsim.Measurement, error) {
	key := backend.Key{NF: a.Name, Profile: a.Profile}
	if m, ok := s.soloCache[key]; ok {
		return m, nil
	}
	m, err := s.TB.SoloNF(a.Name, a.Profile)
	if err != nil {
		return nil, err
	}
	s.soloCache[key] = &m
	return &m, nil
}

// CoRun measures a NIC's residents together, cached by the (sorted)
// resident multiset, so repeated probes of an unchanged NIC are free. It
// is the ground truth the online-feedback loop (internal/cluster) scores
// model predictions against. The returned slice is ordered by the sorted
// keys: each resident is rendered once and inserted in place — bytewise
// over the rendered key, residents with equal keys keeping the given
// order.
func (s *Simulator) CoRun(residents []Arrival) ([]nicsim.Measurement, []Arrival, error) {
	ordered, keys := make([]Arrival, len(residents)), make([]string, len(residents))
	for i, a := range residents {
		k, j := arrivalKey(a), i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j], ordered[j] = keys[j-1], ordered[j-1]
		}
		keys[j], ordered[j] = k, a
	}
	cacheKey := strings.Join(keys, "|")
	if ms, ok := s.coRunCache[cacheKey]; ok {
		return ms, ordered, nil
	}
	ws := make([]*nicsim.Workload, len(ordered))
	for i, a := range ordered {
		w, err := s.TB.Workload(a.Name, a.Profile)
		if err != nil {
			return nil, nil, err
		}
		ws[i] = w
	}
	ms, err := s.TB.Run(ws...)
	if err != nil {
		return nil, nil, err
	}
	s.coRunCache[cacheKey] = ms
	return ms, ordered, nil
}

// nic is one SmartNIC's residents during placement.
type nic struct {
	residents []Arrival
	cores     int
}

// Place runs the strategy over the arrival sequence and evaluates the
// final assignment against ground truth.
func (s *Simulator) Place(seq []Arrival, strat Strategy) (Result, error) {
	var nics []*nic
	for _, a := range seq {
		idx, err := s.chooseNIC(nics, a, strat)
		if err != nil {
			return Result{}, err
		}
		if idx < 0 {
			nics = append(nics, &nic{})
			idx = len(nics) - 1
		}
		nics[idx].residents = append(nics[idx].residents, a)
		nics[idx].cores += nf.NFCores
	}
	res := Result{NICsUsed: len(nics), Total: len(seq)}
	for _, n := range nics {
		v, err := s.Violations(n.residents)
		if err != nil {
			return Result{}, err
		}
		res.Violations += v
	}
	return res, nil
}

// chooseNIC returns the index of the NIC to place a on, or -1 for a new
// NIC.
func (s *Simulator) chooseNIC(nics []*nic, a Arrival, strat Strategy) (int, error) {
	fits := func(n *nic) bool { return n.cores+nf.NFCores <= s.NICCores }
	switch strat.kind {
	case kindMonopolization:
		return -1, nil
	case kindGreedy:
		// Most available resources first (the E3/Meili heuristic).
		best, bestFree := -1, -1
		for i, n := range nics {
			if !fits(n) {
				continue
			}
			if free := s.NICCores - n.cores; free > bestFree {
				best, bestFree = i, free
			}
		}
		return best, nil
	case kindPredict, kindOracle:
		for i, n := range nics {
			ok, err := s.Feasible(n.residents, a, strat)
			if err != nil {
				return 0, err
			}
			if ok {
				return i, nil
			}
		}
		return -1, nil
	}
	return 0, fmt.Errorf("placement: unknown strategy %v", strat)
}

// Fits reports whether a NIC already hosting residents NFs has the core
// budget for one more — the capacity half of the admission decision.
func (s *Simulator) Fits(residents int) bool {
	return (residents+1)*nf.NFCores <= s.NICCores
}

// SeedSolo pre-populates the solo-measurement cache for an arrival. The
// serving layer shares its memoized deterministic measurements this way,
// so online feasibility checks skip re-simulating solos the server has
// already measured.
func (s *Simulator) SeedSolo(a Arrival, m nicsim.Measurement) {
	s.soloCache[backend.Key{NF: a.Name, Profile: a.Profile}] = &m
	s.gen++
}

// Feasible reports whether adding a to a NIC already hosting residents
// keeps every NF (including a) within its SLA according to the strategy's
// predictor, and within the NIC's core budget — the same fits-plus-SLA
// pair Place applies. It is the admission-control primitive the serving
// layer (internal/serve) exposes online: for prediction strategies one
// Score finished by a's own SLA; Oracle consults ground-truth co-runs.
func (s *Simulator) Feasible(residents []Arrival, a Arrival, strat Strategy) (bool, error) {
	if !s.Fits(len(residents)) {
		return false, nil
	}
	if strat.kind != kindOracle {
		sc, err := s.Score(residents, a, strat)
		return sc.Admits(a.SLA), err
	}
	ms, ordered, err := s.CoRun(append(append([]Arrival(nil), residents...), a))
	if err != nil {
		return false, err
	}
	for i, r := range ordered {
		solo, err := s.solo(r)
		if err != nil {
			return false, err
		}
		if ms[i].Throughput < (1-r.SLA)*solo.Throughput {
			return false, nil
		}
	}
	return true, nil
}

// FeasibleBatch is Feasible over many candidate resident sets. What
// amortizes across sets (solo resolution, the sequence memo) lives in
// the simulator's per-backend scorer, so the batch is just the loop.
func (s *Simulator) FeasibleBatch(sets [][]Arrival, a Arrival, strat Strategy) ([]bool, error) {
	out := make([]bool, len(sets))
	for i, set := range sets {
		ok, err := s.Feasible(set, a, strat)
		if err != nil {
			return nil, err
		}
		out[i] = ok
	}
	return out, nil
}

// Score is the SLA-independent part of one feasibility verdict: whether
// every resident keeps its SLA with the newcomer added, plus the
// newcomer's predicted co-located and measured solo throughput. It is a
// function of the ordered resident sequence, the newcomer's (NF,
// profile) and Generation alone, so a caller may keep it for as long as
// those stand — the newcomer's SLA enters only in Admits.
type Score struct {
	ResidentsOK     bool
	Predicted, Solo float64
}

// Admits finishes the verdict for the newcomer's own SLA.
func (sc Score) Admits(sla float64) bool {
	return sc.ResidentsOK && !(sc.Predicted < (1-sla)*sc.Solo)
}

// Bounds of a scorer's sequence memo. Wider sequences are computed
// unmemoized; a full table is cleared wholesale, as a generation bump
// clears it.
const (
	seqWidth      = 8       // members per key, newcomer included
	maxSeqTypes   = 1 << 12 // interned (NF, profile) types
	maxSeqEntries = 1 << 14 // memoized sequences, ~170 bytes each
)

// seqKey is an ordered member sequence — residents in index order, then
// the newcomer — as interned type numbers.
type seqKey struct {
	n   uint16
	ids [seqWidth]uint16
}

// seqScores is what one member sequence's predictions came to: each
// member's predicted co-located and measured solo throughput, filled in
// index order as far as some Score has walked (n members).
type seqScores struct {
	n               int
	predicted, solo [seqWidth]float64
}

// scorer is one backend's evaluator for the generation it was built at:
// the backend's throughput-only adapter (backend.Batch, one plain
// Backend.Predict per miss), a competitor slice that grows once and is
// re-sliced per prediction, and the sequence memo. A member's prediction
// depends on the member types and their order and on the generation —
// never on an SLA — so one sequence's scores answer every NIC holding
// it, whatever its residents' SLAs. The memo's tables wait for the
// generation's second sequence: the first one is kept inline in
// firstSeq, so a one-shot Score (serve's admit path builds a simulator
// per request) allocates neither.
type scorer struct {
	gen     uint64
	batch   backend.Batch
	compBuf []backend.Competitor

	ids      map[backend.Key]uint16
	memo     map[seqKey]*seqScores
	hot      *hotCache
	firstN   int
	firstSeq [seqWidth]Arrival
	first    seqScores
}

// hotCache fronts a scorer's ids and memo with direct-mapped caches. A
// scheduling loop scores the same few types and sequences over and
// over, and one compare against a cached key is cheaper than hashing
// the key into a map. An entry is a copy of a table entry, so the cache
// is cleared with the tables.
type hotCache struct {
	types [256]struct {
		key backend.Key
		id  uint16
		ok  bool
	}
	seqs [1024]struct {
		key seqKey
		sc  *seqScores
	}
}

// typeSlot is a member type's slot in hotCache.types.
func typeSlot(m *Arrival) uint {
	h := (uint64(m.Profile.Flows)*0x9e3779b97f4a7c15 ^ uint64(m.Profile.PktSize)) * 0xc2b2ae3d27d4eb4f
	h = (h ^ math.Float64bits(m.Profile.MTBR) ^ uint64(len(m.Name))) * 0x9e3779b97f4a7c15
	return uint(h >> 56)
}

// seqSlot is a sequence's slot in hotCache.seqs.
func seqSlot(k *seqKey) uint {
	h := uint64(k.n)
	for _, id := range k.ids[:k.n] {
		h = (h ^ uint64(id)) * 0x100000001b3
	}
	return uint((h * 0x9e3779b97f4a7c15) >> 54)
}

// scores returns the memo entry for set+a, or nil when the sequence
// bypasses the memo: wider than a key, or with a member whose profile is
// not equal to itself (NaN), which would never be found again.
func (e *scorer) scores(set []Arrival, a Arrival) *seqScores {
	if len(set)+1 > seqWidth || a.Profile != a.Profile {
		return nil
	}
	for i := range set {
		if set[i].Profile != set[i].Profile {
			return nil
		}
	}
	if e.memo == nil {
		if e.firstN == 0 {
			e.firstN = len(set) + 1
			copy(e.firstSeq[:], set)
			e.firstSeq[len(set)] = a
			return &e.first
		}
		e.ids, e.memo, e.hot = map[backend.Key]uint16{}, map[seqKey]*seqScores{}, new(hotCache)
		e.memo[e.key(e.firstSeq[:e.firstN-1], &e.firstSeq[e.firstN-1])] = &e.first
	}
	k := e.key(set, &a)
	c := &e.hot.seqs[seqSlot(&k)]
	if c.sc != nil && c.key == k {
		return c.sc
	}
	sc := e.memo[k]
	if sc == nil {
		if len(e.memo) >= maxSeqEntries {
			clear(e.memo)
			clear(e.hot.seqs[:])
		}
		sc = new(seqScores)
		e.memo[k] = sc
	}
	c.key, c.sc = k, sc
	return sc
}

// key interns the member types of set+a. An intern table that could
// overflow is cleared first, and the entries numbered by it with it.
func (e *scorer) key(set []Arrival, a *Arrival) seqKey {
	if len(e.ids)+len(set)+1 > maxSeqTypes {
		clear(e.ids)
		clear(e.memo)
		*e.hot = hotCache{}
	}
	k := seqKey{n: uint16(len(set) + 1)}
	for i := range set {
		k.ids[i] = e.intern(&set[i])
	}
	k.ids[len(set)] = e.intern(a)
	return k
}

// intern numbers one member's type.
func (e *scorer) intern(m *Arrival) uint16 {
	c := &e.hot.types[typeSlot(m)]
	if c.ok && c.key.NF == m.Name && c.key.Profile == m.Profile {
		return c.id
	}
	t := backend.Key{NF: m.Name, Profile: m.Profile}
	id, ok := e.ids[t]
	if !ok {
		id = uint16(len(e.ids))
		e.ids[t] = id
	}
	c.key, c.id, c.ok = t, id, true
	return id
}

// member is the i-th member of set+a: a resident, or the newcomer last.
func member(set []Arrival, a Arrival, i int) Arrival {
	if i < len(set) {
		return set[i]
	}
	return a
}

// Score predicts every member of set+a beside the others. Targets and
// competitors are visited in index order, newcomer last: feature
// accumulation is order-sensitive, so the order is part of the result.
// Each member's prediction is memoized by the ordered member types (see
// scorer) and filled lazily, so which models and solos are consulted,
// and which error surfaces, are the same as on a first walk; only the
// SLA compare runs on every call. The core budget is not consulted —
// callers pair Score with Fits.
func (s *Simulator) Score(set []Arrival, a Arrival, strat Strategy) (Score, error) {
	if strat.kind != kindPredict {
		return Score{}, fmt.Errorf("placement: Score does not support strategy %v", strat)
	}
	e := s.scorers[strat.backend]
	if e == nil || e.gen != s.gen {
		b, ok := backend.Get(strat.backend)
		if !ok {
			return Score{}, fmt.Errorf("placement: unknown prediction backend %q", strat.backend)
		}
		e = &scorer{gen: s.gen, batch: backend.NewBatch(b)}
		s.scorers[strat.backend] = e
	}
	sc := e.scores(set, a)
	for ti := 0; ; ti++ {
		var predicted, solo float64
		if sc != nil && ti < sc.n {
			predicted, solo = sc.predicted[ti], sc.solo[ti]
		} else {
			var err error
			if predicted, solo, err = s.predict(e, strat.backend, set, a, ti); err != nil {
				return Score{}, err
			}
			if sc != nil {
				sc.predicted[ti], sc.solo[ti], sc.n = predicted, solo, ti+1
			}
		}
		if ti == len(set) {
			return Score{ResidentsOK: true, Predicted: predicted, Solo: solo}, nil
		}
		if predicted < (1-set[ti].SLA)*solo {
			return Score{}, nil
		}
	}
}

// predict runs the backend for member ti of set+a beside the others,
// returning its predicted co-located and measured solo throughput.
func (s *Simulator) predict(e *scorer, backendName string, set []Arrival, a Arrival, ti int) (predicted, solo float64, err error) {
	target := member(set, a, ti)
	sm, err := s.solo(target)
	if err != nil {
		return 0, 0, err
	}
	model, err := s.Model(backendName, target.Name)
	if err != nil {
		return 0, 0, err
	}
	comps := e.compBuf[:0]
	// Skip by index, not value: two identical arrivals (same NF, profile
	// and SLA) are distinct residents and contend with each other.
	for oi := 0; oi <= len(set); oi++ {
		if oi == ti {
			continue
		}
		other := member(set, a, oi)
		m, err := s.solo(other)
		if err != nil {
			return 0, 0, err
		}
		comps = append(comps, backend.Competitor{NF: other.Name, Profile: other.Profile, Solo: m})
	}
	e.compBuf = comps[:0]
	s.predictions++
	predicted, err = e.batch.Predict(model, backend.Key{NF: target.Name, Profile: target.Profile}, comps, sm.Throughput)
	return predicted, sm.Throughput, err
}

// PredictWith predicts target's co-located throughput among others
// using an explicit model handle instead of the installed one. It is
// the shadow-evaluation primitive: a retrained candidate predicts live
// scenarios through it without ever being installed, so its output can
// be scored against ground truth while the installed model keeps
// serving every decision.
func (s *Simulator) PredictWith(backendName string, m backend.Model, target Arrival, others []Arrival) (float64, error) {
	b, ok := backend.Get(backendName)
	if !ok {
		return 0, fmt.Errorf("placement: unknown prediction backend %q", backendName)
	}
	var comps []backend.Competitor
	for _, o := range others {
		sm, err := s.solo(o)
		if err != nil {
			return 0, err
		}
		comps = append(comps, backend.Competitor{NF: o.Name, Profile: o.Profile, Solo: sm})
	}
	solo, err := s.solo(target)
	if err != nil {
		return 0, err
	}
	pred, err := b.Predict(m, backend.Scenario{
		Profile:     target.Profile,
		Competitors: comps,
		Solo:        func() (float64, error) { return solo.Throughput, nil },
	})
	if err != nil {
		return 0, err
	}
	return pred.PredictedPPS, nil
}

// Violations counts residents whose ground-truth throughput breaks
// their SLA when co-run together. It is the enforcement probe the fleet
// orchestrator (internal/cluster) applies after every placement and
// drift; co-runs are cached by resident multiset, so re-checking an
// unchanged NIC is a lookup.
func (s *Simulator) Violations(residents []Arrival) (int, error) {
	if len(residents) <= 1 {
		return 0, nil
	}
	ms, ordered, err := s.CoRun(residents)
	if err != nil {
		return 0, err
	}
	count := 0
	for i, r := range ordered {
		solo, err := s.solo(r)
		if err != nil {
			return 0, err
		}
		if ms[i].Throughput < (1-r.SLA)*solo.Throughput {
			count++
		}
	}
	return count, nil
}
