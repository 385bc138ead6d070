package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/nicsim"
	"repro/internal/slomo"
	"repro/internal/traffic"
)

// RegistryConfig tunes a ModelRegistry.
type RegistryConfig struct {
	// Dir is the model directory. Persisted models are discovered here
	// and on-demand-trained models are written back to it. Empty disables
	// persistence (every model trains on demand, in memory only).
	Dir string
	// Seed drives on-demand training.
	Seed uint64
	// Train configures on-demand Yala training. The zero value selects
	// backend.QuickYalaConfig — full offline training belongs in `yala
	// train`, not on a serving path.
	Train core.TrainConfig
	// SLOMO configures on-demand SLOMO training; zero value selects
	// backend.QuickSLOMOConfig.
	SLOMO slomo.Config
}

// defaultNIC is the hardware preset behind the empty hardware key —
// what unqualified models train and predict against. Read-only.
var defaultNIC = nicsim.BlueField2()

// presetFor resolves a hardware key to its NIC preset — the one place
// that decides what a key means: the empty key is defaultNIC, named
// keys are the fleet hardware classes (cluster.ClassConfig), which share
// the registry's hardware-keyed on-disk layout with cluster runs. Any
// other key is a bad request, so no model or measurement work ever
// starts under it.
func presetFor(hw string) (nicsim.Config, error) {
	if hw == "" {
		return defaultNIC, nil
	}
	cfg, err := cluster.ClassConfig(hw)
	if err != nil {
		return nicsim.Config{}, badRequestf("unknown hardware class %q (have %s)", hw, strings.Join(cluster.ClassNames(), ", "))
	}
	return cfg, nil
}

func (c RegistryConfig) withDefaults() RegistryConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Train.GBR.Trees == 0 {
		c.Train = backend.QuickYalaConfig(c.Seed)
	}
	if c.SLOMO.Samples == 0 {
		c.SLOMO = backend.QuickSLOMOConfig(c.Seed)
	}
	return c
}

// trainOptions resolves the backend-specific training configuration the
// registry hands to backend.Train. The built-in backends read the typed
// RegistryConfig fields; any other backend trains on its own defaults
// (nil options) — so a new backend needs no registry edits at all.
func (c RegistryConfig) trainOptions(backendName string) any {
	switch backendName {
	case "yala":
		return c.Train
	case "slomo":
		// SLOMO trains at one fixed profile: the paper default.
		return backend.SLOMOOptions{Config: c.SLOMO, Profile: traffic.Default}
	}
	return nil
}

// entryKey identifies one model slot: a backend and NF, optionally
// qualified by a hardware key (a NIC-class name) for fleets that mix
// hardware targets. The empty hardware key is the registry's default
// NIC preset and maps to the unqualified on-disk layout.
type entryKey struct {
	backend string
	hw      string
	name    string
}

// ModelRegistry loads persisted per-NF models lazily and concurrently
// safely: the first Get for a key performs the load (or trains and
// persists when no model file exists) while every concurrent Get for the
// same key blocks until that one attempt resolves (a flight.Group). Failed
// loads are not cached; the next Get retries. The registry is fully
// backend-generic — every load, train, persist and listing path goes
// through the internal/backend interface, so registering a new backend
// makes it servable with zero edits here.
type ModelRegistry struct {
	cfg RegistryConfig

	models flight.Group[entryKey, backend.Model]

	// persistFails counts model-persistence failures; lastPersistErr
	// keeps the most recent one. A persist failure must not discard a
	// trained model or fail the request — serving stays up, the operator
	// sees the failure in stats.
	statMu         sync.Mutex
	persistFails   uint64
	lastPersistErr string

	// trainHook, when set, observes every on-demand training (tests):
	// backend, hardware key ("" = default NIC), NF name.
	trainHook func(Backend, string, string)

	// metaMu guards meta: per-key generation and training timestamp. A
	// key's generation counts how many times this process resolved a
	// fresh model for it — load-from-disk, on-demand train, or promotion
	// all bump it, so an external observer polling /v2/models can detect
	// "the served model changed" without diffing model bytes.
	metaMu sync.Mutex
	meta   map[entryKey]modelMeta
}

// modelMeta is the registry's per-model bookkeeping beyond the model
// itself.
type modelMeta struct {
	generation uint64
	trainedAt  time.Time
}

// NewRegistry returns a registry over a model directory.
func NewRegistry(cfg RegistryConfig) *ModelRegistry {
	return &ModelRegistry{cfg: cfg.withDefaults()}
}

// stem is the key's on-disk name component — the /v2 model ID, <nf> for
// the default hardware and <nf>@<hw> for a named key.
func (k entryKey) stem() string { return api.ModelID(k.name, k.hw) }

// modelPath is the on-disk location for one model:
// <dir>/<stem>.<backend>.json. The NF name keeps its catalog casing so
// names discovered from disk round-trip into requests and Reload calls
// unchanged.
func (r *ModelRegistry) modelPath(key entryKey) string {
	return filepath.Join(r.cfg.Dir, fmt.Sprintf("%s.%s.json", key.stem(), key.backend))
}

// Model returns the named backend's model for an NF on the registry's
// default NIC, loading it from the model directory or training it on
// demand on first use.
func (r *ModelRegistry) Model(backendName, name string) (backend.Model, error) {
	return r.ModelOn(backendName, "", name)
}

// ModelOn is the hardware-keyed lookup behind heterogeneous fleets: it
// returns the backend's model for an NF trained against hw's NIC
// preset (presetFor), keyed (and persisted) under hw. The empty hw
// selects the registry's default NIC and the unqualified on-disk
// layout; duplicate-load suppression applies per (backend, hw, NF)
// key. It is the serve-side implementation of cluster.ModelSource.
func (r *ModelRegistry) ModelOn(backendName, hw, name string) (backend.Model, error) {
	b, ok := backend.Get(backendName)
	if !ok {
		return nil, fmt.Errorf("serve: unknown backend %q (have %s)", backendName, strings.Join(backend.Names(), ", "))
	}
	cfg, err := presetFor(hw)
	if err != nil {
		return nil, err
	}
	return r.models.Do(entryKey{backendName, hw, name}, 0, func() (backend.Model, error) {
		return r.load(b, entryKey{backendName, hw, name}, cfg)
	})
}

// Reload drops the cached model — across every hardware key — so the
// next Get re-reads the model directory. Callers also serving memoized
// responses computed with the old model must flush those too —
// Service.Reload does both.
func (r *ModelRegistry) Reload(backendName, name string) {
	r.models.ForgetMatching(func(k entryKey) bool {
		return k.backend == backendName && k.name == name
	})
}

// load reads the persisted model, or trains and persists one against
// the key's NIC preset. An unreadable model file (e.g. truncated by a
// crash mid-write) also falls through to retraining, which rewrites it —
// a corrupt file must not permanently wedge an NF's serving path.
func (r *ModelRegistry) load(b backend.Backend, key entryKey, nic nicsim.Config) (backend.Model, error) {
	if r.cfg.Dir != "" {
		if m, err := b.Load(r.modelPath(key)); err == nil {
			r.bumpGeneration(key)
			return m, nil
		}
	}
	if r.trainHook != nil {
		r.trainHook(Backend(key.backend), key.hw, key.name)
	}
	m, err := b.Train(backend.TrainEnv{
		NIC:     nic,
		Seed:    r.cfg.Seed,
		Options: r.cfg.trainOptions(key.backend),
	}, key.name)
	if err != nil {
		return nil, fmt.Errorf("serve: training %s/%s on %s: %w", key.backend, key.name, nic.Name, err)
	}
	r.persist(key, func(path string) error { return b.Save(m, path) })
	r.bumpGeneration(key)
	return m, nil
}

// bumpGeneration records that a fresh model resolved for the key.
func (r *ModelRegistry) bumpGeneration(key entryKey) {
	r.metaMu.Lock()
	if r.meta == nil {
		r.meta = map[entryKey]modelMeta{}
	}
	prev := r.meta[key]
	r.meta[key] = modelMeta{generation: prev.generation + 1, trainedAt: time.Now()}
	r.metaMu.Unlock()
}

// metaOf returns the recorded metadata for a key (zero if never
// resolved in this process).
func (r *ModelRegistry) metaOf(key entryKey) modelMeta {
	r.metaMu.Lock()
	defer r.metaMu.Unlock()
	return r.meta[key]
}

// Install atomically replaces the served model for (backend, hw, nf)
// with a candidate trained out-of-band — the promotion path of the
// online-feedback loop. The model is persisted (same atomic
// temp+rename as on-demand training), swapped into the in-memory memo
// so the very next Predict uses it with no empty-slot window, and the
// key's generation is bumped. Callers serving memoized responses
// computed with the old model must flush those too — Service.promote
// does both.
func (r *ModelRegistry) Install(backendName, hw, nf string, m backend.Model) error {
	b, ok := backend.Get(backendName)
	if !ok {
		return fmt.Errorf("serve: unknown backend %q (have %s)", backendName, strings.Join(backend.Names(), ", "))
	}
	if _, err := presetFor(hw); err != nil {
		return err
	}
	key := entryKey{backendName, hw, nf}
	r.persist(key, func(path string) error { return b.Save(m, path) })
	r.models.Put(key, m)
	r.bumpGeneration(key)
	return nil
}

// persist writes a model file atomically (temp + rename, so a crash
// mid-write never leaves a truncated model where a valid one is
// expected) and records rather than returns failures: the freshly
// trained in-memory model is still good, so the NF keeps serving.
func (r *ModelRegistry) persist(key entryKey, save func(string) error) {
	if r.cfg.Dir == "" {
		return
	}
	path := r.modelPath(key)
	tmp := path + ".tmp"
	err := save(tmp)
	if err == nil {
		err = os.Rename(tmp, path)
	} else {
		os.Remove(tmp)
	}
	if err != nil {
		r.statMu.Lock()
		r.persistFails++
		r.lastPersistErr = fmt.Sprintf("%s/%s: %v", key.backend, key.stem(), err)
		r.statMu.Unlock()
	}
}

// PersistFailures reports how many model persists have failed and the
// most recent failure.
func (r *ModelRegistry) PersistFailures() (uint64, string) {
	r.statMu.Lock()
	defer r.statMu.Unlock()
	return r.persistFails, r.lastPersistErr
}

// resourceID is the /v2 resource name of a model: "<nf>[@<hw>]/<backend>".
func resourceID(i ModelInfo) string { return api.ModelID(i.NF, i.HW) + "/" + i.Backend }

// infoOf renders one entry's listing form.
func infoOf(key entryKey) *ModelInfo {
	return &ModelInfo{
		NF:      key.name,
		HW:      key.hw,
		Backend: key.backend,
	}
}

// Models lists every model discovered in the model directory plus every
// model loaded (or trained) in memory, sorted by NF, hardware key, then
// backend. Discovery spans every registered backend's on-disk suffix.
func (r *ModelRegistry) Models() []ModelInfo {
	infos := map[entryKey]*ModelInfo{}
	if r.cfg.Dir != "" {
		ents, err := os.ReadDir(r.cfg.Dir)
		if err == nil {
			for _, de := range ents {
				name := de.Name()
				for _, b := range backend.Names() {
					suffix := fmt.Sprintf(".%s.json", b)
					stem, ok := strings.CutSuffix(name, suffix)
					if !ok || stem == "" {
						continue
					}
					nf, hw, _ := strings.Cut(stem, "@")
					if nf == "" {
						continue
					}
					key := entryKey{b, hw, nf}
					info := infoOf(key)
					info.OnDisk = true
					infos[key] = info
				}
			}
		}
	}
	for _, key := range r.models.Resolved() {
		if info, ok := infos[key]; ok {
			info.Loaded = true
		} else {
			info := infoOf(key)
			info.Loaded = true
			infos[key] = info
		}
	}
	for key, info := range infos {
		if m := r.metaOf(key); m.generation > 0 {
			info.Generation = m.generation
			info.TrainedAt = m.trainedAt.Unix()
		}
	}
	out := make([]ModelInfo, 0, len(infos))
	for _, info := range infos {
		out = append(out, *info)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].NF != out[j].NF {
			return out[i].NF < out[j].NF
		}
		if out[i].HW != out[j].HW {
			return out[i].HW < out[j].HW
		}
		return out[i].Backend < out[j].Backend
	})
	return out
}
