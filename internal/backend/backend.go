// Package backend defines the pluggable prediction-backend interface
// the serving and orchestration layers consume, plus the process-wide
// backend registry.
//
// The paper frames Yala as one of several contention-aware predictors
// (SLOMO being its baseline); this package is the seam that keeps the
// rest of the tree backend-agnostic. A Backend knows how to train a
// per-NF model, persist and reload it, and answer prediction scenarios
// through an opaque Model handle. Implementations self-register
// (Register, usually from an init function), so a new predictor drops
// into the model registry, the HTTP API and the CLI without any edits to
// those layers — serve.ModelRegistry, internal/placement and
// internal/cluster all reach models exclusively through this package.
//
// The built-in backends — "yala" (per-resource white/black-box models
// with RTC/pipeline composition) and "slomo" (counter-extrapolation
// baseline) — live in this package and register themselves on import.
package backend

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/nicsim"
	"repro/internal/traffic"
)

// DefaultName is the backend requests select when they name none.
const DefaultName = "yala"

// Model is the opaque handle for one trained per-NF model. Concrete
// types belong to the backend that produced the model; every other
// layer stores and passes Models without looking inside.
type Model interface {
	// NF names the network function the model was trained for.
	NF() string
}

// Competitor describes one co-resident NF the way predictors see it:
// its identity, its traffic profile, and its solo measurement at that
// profile (the offline contention description of §3). Solo is a pointer
// because scheduling loops pass the same memoized measurement many
// times per decision.
type Competitor struct {
	NF      string
	Profile traffic.Profile
	Solo    *nicsim.Measurement
}

// Scenario is one prediction question: the target NF's traffic profile
// and the competitors sharing its NIC.
type Scenario struct {
	Profile     traffic.Profile
	Competitors []Competitor
	// Solo lazily supplies the target's *measured* solo throughput at
	// Profile. Backends that extrapolate from a measured baseline
	// (slomo) call it; backends that model solo throughput themselves
	// (yala) never do — so callers on a model-only path pay nothing for
	// leaving the measurement unrun. A nil Solo means the caller cannot
	// measure; backends that need it must fail, not guess.
	Solo func() (float64, error)
}

// Prediction is a backend's answer to one Scenario.
type Prediction struct {
	// SoloPPS is the backend's solo baseline: a model's own solo
	// prediction, or the measured solo an extrapolating backend consumed.
	SoloPPS float64
	// PredictedPPS is the estimated co-located throughput.
	PredictedPPS float64
	// PerResourcePPS and Bottleneck carry a per-resource attribution for
	// backends that produce one (yala); nil/empty otherwise.
	PerResourcePPS map[string]float64
	Bottleneck     string
}

// TrainEnv is everything a backend may use for on-demand training: the
// hardware preset to simulate, the determinism seed, and an optional
// backend-specific configuration (e.g. core.TrainConfig for yala,
// SLOMOOptions for slomo). A nil Options selects the backend's quick
// serving-path default.
type TrainEnv struct {
	NIC     nicsim.Config
	Seed    uint64
	Options any
}

// Backend is one prediction engine: it trains, persists, loads and
// evaluates per-NF models. Implementations must be safe for concurrent
// use (the model registry calls them from many goroutines) and
// deterministic given (TrainEnv, NF) — the serving cache and the
// replayable cluster runs both rest on that.
type Backend interface {
	// Name is the backend's wire identifier: lowercase, stable, unique.
	Name() string
	// Train fits a model for the named NF in the given environment.
	Train(env TrainEnv, nf string) (Model, error)
	// Predict answers one scenario with a model this backend produced.
	Predict(m Model, sc Scenario) (Prediction, error)
	// Save persists a model to path; Load reads one back. Load must
	// reject files it did not write (the registry retrains on load
	// failure, so a corrupt or foreign file must not pass).
	Save(m Model, path string) error
	Load(path string) (Model, error)
}

// Key identifies one (NF, traffic profile) pair: the type of a member
// in a scheduling loop, and the key of the memos that scheduling keeps
// over such members (solo measurements, interned sequence types).
type Key struct {
	NF      string
	Profile traffic.Profile
}

// Batch is the throughput-only adapter scheduling loops evaluate
// through: one Predict over the owning backend's Backend.Predict, with
// the target's measured solo already in hand. It keeps no state, so it
// agrees with Backend.Predict exactly, whatever it is handed.
type Batch struct {
	b Backend
}

// NewBatch returns the throughput-only adapter over b.Predict.
func NewBatch(b Backend) Batch { return Batch{b} }

// Predict estimates the target's co-located throughput. solo is the
// target's measured solo throughput at target.Profile.
func (bt Batch) Predict(m Model, target Key, comps []Competitor, solo float64) (float64, error) {
	pred, err := bt.b.Predict(m, Scenario{
		Profile:     target.Profile,
		Competitors: comps,
		Solo:        func() (float64, error) { return solo, nil },
	})
	if err != nil {
		return 0, err
	}
	return pred.PredictedPPS, nil
}

// registry is the process-wide backend set. A plain map under an
// RWMutex: registration happens at init time (or in tests), lookups on
// every request.
var (
	regMu    sync.RWMutex
	registry = map[string]Backend{}
)

// Register adds a backend to the process-wide registry. It panics on an
// empty name or a duplicate registration — both are programmer errors
// that must fail at startup, not surface as puzzling request behavior.
func Register(b Backend) {
	name := b.Name()
	if name == "" {
		panic("backend: Register with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("backend: duplicate registration of %q", name))
	}
	registry[name] = b
}

// Get returns the named backend.
func Get(name string) (Backend, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	b, ok := registry[name]
	return b, ok
}

// Names lists registered backends, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
