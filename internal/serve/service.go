package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/feedback"
	"repro/internal/flight"
	"repro/internal/nicsim"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/tenant"
	"repro/internal/testbed"
	"repro/internal/traffic"
	"repro/internal/wire"
)

// ServiceConfig tunes a Service.
type ServiceConfig struct {
	Registry RegistryConfig
	// Workers is the number of compute slots: how many requests may run
	// predictor work at once; default GOMAXPROCS.
	Workers int
	// CacheEntries is the LRU capacity across all shards; default 8192.
	// Negative disables caching.
	CacheEntries int
	// AccessLog emits one log line per HTTP request (request ID, status,
	// duration, stage breakdown). Off by default: the hot path should not
	// pay for logging unless an operator asked for it.
	AccessLog bool
	// Gate, when set, mounts the multi-tenant admission gate on the HTTP
	// surface: API-key auth, per-tenant rate limits, and load shedding
	// (see internal/tenant). Nil serves every request unconditionally,
	// the pre-tenancy behavior.
	Gate *tenant.Gate
	// Feedback overrides the online-feedback controller's tuning (drift
	// gate thresholds, synchronous mode, custom train/promote hooks —
	// see internal/feedback). Nil selects the defaults; the controller
	// always runs, wired to this service's registry for retraining and
	// promotion.
	Feedback *feedback.Config
}

func (c ServiceConfig) withDefaults() ServiceConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 8192
	}
	return c
}

// soloKey identifies one solo measurement: hardware class (empty = the
// registry's default NIC), NF and profile.
type soloKey struct {
	hw   string
	name string
	prof traffic.Profile
}

// queuePerWorker is the backlog, per compute slot, of requests waiting
// for a slot at which the tenant gate's queue signal saturates.
const queuePerWorker = 4

// Service answers prediction-serving requests: Predict, Compare, Admit
// and Diagnose compute under a bounded number of slots, consult the
// model registry through the backend interface, and memoize full
// responses in a sharded LRU. Every measurement a request needs runs on
// a fresh deterministic testbed, so a response is a pure function of the
// request (plus the registry's models) and caching is exact, not
// approximate. The /v2 API additionally serves hardware-qualified models
// ("nf@hw"): predictions then run against that fleet class's NIC preset.
type Service struct {
	cfg   ServiceConfig
	reg   *ModelRegistry
	cache *Cache

	solo flight.Group[soloKey, nicsim.Measurement]

	// computeSlots bounds request-path predictor work to cfg.Workers
	// requests at once. clusterSlot serializes cluster comparison runs:
	// they are multi-second batch jobs that take no compute slot, so
	// without a cap of their own abandoned or hostile requests could pin
	// every CPU.
	computeSlots slots
	clusterSlot  slots

	// wg counts the requests past withSlot's closed check; Close waits
	// for them.
	wg      sync.WaitGroup
	closeMu sync.RWMutex
	closed  bool

	started time.Time

	predicts    atomic.Uint64
	compares    atomic.Uint64
	admits      atomic.Uint64
	diagnoses   atomic.Uint64
	clusterRuns atomic.Uint64
	ingests     atomic.Uint64
	errors      atomic.Uint64

	// fb is the online-feedback controller: ingest windows, the drift
	// gate, background retraining, shadow scoring and promotion.
	fb *feedback.Controller

	// promoteHook, when set, observes every promotion after the model
	// swap and cache eviction — the gateway uses it to fan the reload
	// out to sibling replicas and evict its edge cache.
	promoteMu   sync.Mutex
	promoteHook func(backendName, hw, nf string)

	// Transport split of the same request stream: httpRequests counts
	// requests arriving through the HTTP front door, wireRequests those
	// through the yalawire listener; canceled counts requests whose
	// client went away before the response (not server errors — see the
	// tenant gate's shed-signal handling of status 499).
	httpRequests atomic.Uint64
	wireRequests atomic.Uint64
	canceled     atomic.Uint64

	// wireAddr is the yalawire listener's address when one is mounted
	// ("" otherwise); /v2/stats advertises it so gateways can discover
	// and upgrade to wire upstream transport.
	wireAddr atomic.Pointer[string]

	// obs is the /metrics registry; reqSeconds and stageHist are its
	// hot-path histograms, held directly so observations never take the
	// registry lock (see initObs). soloSeconds times the cold path only:
	// one observation per solo simulation actually run, and soloFlows
	// adds that simulation's flow count — seconds ÷ flows is the cold
	// path's cost per flow.
	obs         *obs.Registry
	reqSeconds  *obs.Histogram
	stageHist   map[string]*obs.Histogram
	soloSeconds *obs.Histogram
	soloFlows   *obs.Counter
}

// NewService returns a running service. Call Close to stop it.
func NewService(cfg ServiceConfig) *Service {
	cfg = cfg.withDefaults()
	// Resolve the registry defaults once: request paths (hardware
	// resolution, fresh testbeds) read the config on every call, and the
	// default quick-training configs are not free to construct.
	cfg.Registry = cfg.Registry.withDefaults()
	s := &Service{
		cfg:          cfg,
		reg:          NewRegistry(cfg.Registry),
		cache:        NewCache(cfg.CacheEntries),
		computeSlots: slots{ch: make(chan struct{}, cfg.Workers)},
		clusterSlot:  slots{ch: make(chan struct{}, 1)},
		started:      time.Now(),
	}
	// The feedback controller defaults to this service's own training
	// and promotion paths; a caller-supplied Config may override either
	// (simulations, tests).
	fbCfg := feedback.Config{}
	if cfg.Feedback != nil {
		fbCfg = *cfg.Feedback
	}
	if fbCfg.Train == nil {
		fbCfg.Train = s.feedbackTrain
	}
	if fbCfg.Promote == nil {
		fbCfg.Promote = s.feedbackPromote
	}
	s.fb = feedback.New(fbCfg)
	s.initObs()
	if cfg.Gate != nil {
		// The gate's queue-pressure signal is this service's own backlog
		// of requests waiting for a compute slot, saturating at
		// queuePerWorker per slot; its yala_tenant_* series land in this
		// /metrics registry.
		cfg.Gate.SetQueueFunc(func() float64 {
			return min(float64(s.computeSlots.waiting.Load())/float64(queuePerWorker*cfg.Workers), 1)
		})
		cfg.Gate.SetObs(s.obs)
	}
	return s
}

// Registry exposes the service's model registry.
func (s *Service) Registry() *ModelRegistry { return s.reg }

// Reload evicts a model so the next request re-reads the model directory
// — the operator hook for pushing retrained models into a live server —
// and drops exactly the response-cache entries computed with the old
// model: predictions for that backend+NF (the diagnose and compare views
// are assembled from those same entries), admissions under that backend
// naming the NF as candidate or resident, and the NF's ground-truth
// co-run measurements. Entries for unrelated (backend, NF) pairs keep
// serving warm — a single-model push must not cold-start every key the
// server holds. The solo-measurement memo survives: measurements depend
// only on the testbed, not on models. The pair's drift evidence and
// calibration reset on every hardware key too (feedback's Forget): they
// described the retired model, not the one the directory now holds.
func (s *Service) Reload(backendName Backend, name string) {
	s.reg.Reload(string(backendName), name)
	s.fb.Forget(func(k feedback.Key) bool {
		return k.Backend == string(backendName) && k.NF == name
	})
	s.cache.EvictMatching(func(key string) bool {
		return reloadAffects(key, string(backendName), name)
	})
}

// reloadAffects reports whether one cache entry was computed with the
// (backend, nf) model being reloaded. The key shapes it parses are the
// ones this file builds:
//
//	predict|<backend>|<hw>|<nf>@<profile>|<competitors>
//	measure|<hw>|<nf>@<profile>|<competitors>
//	admit|<backend>|<hw>|<colo>,<colo>,...|cand=<colo>   (colo = <nf>@<profile>~<sla>)
//
// Competitors contribute only their memoized solo measurements — never
// their models — so a predict entry depends on exactly one model: its
// target NF's under its backend. An admit entry consults models for
// every participant, so the NF may appear anywhere in the colo list.
// Measure entries are model-independent, but they follow the reloaded
// NF out of the cache anyway: Reload's contract is "the next request
// involving this NF recomputes", and a re-measurement is deterministic.
// The reload spans hardware classes (the registry drops every hw key),
// so hw never narrows the match.
func reloadAffects(key, backendName, name string) bool {
	kind, rest, ok := strings.Cut(key, "|")
	if !ok {
		return false
	}
	switch kind {
	case "predict":
		b, rest, ok := strings.Cut(rest, "|")
		if !ok || b != backendName {
			return false
		}
		_, scenario, ok := strings.Cut(rest, "|") // strip hw
		if !ok {
			return false
		}
		target, _, _ := strings.Cut(scenario, "@")
		return target == name
	case "measure":
		_, scenario, ok := strings.Cut(rest, "|") // strip hw
		if !ok {
			return false
		}
		target, _, _ := strings.Cut(scenario, "@")
		return target == name
	case "admit":
		b, rest, ok := strings.Cut(rest, "|")
		if !ok || b != backendName {
			return false
		}
		_, colos, ok := strings.Cut(rest, "|") // strip hw
		if !ok {
			return false
		}
		return admitKeyNames(colos, name)
	}
	return false
}

// admitKeyNames reports whether an admit key's participant list names
// nf. A participant name appears as "<nf>@" at the start of the list or
// right after a separator: ',' between residents, '|' before the
// candidate clause, '=' after "cand". Profile renderings "(f, p, m)"
// contain commas, but only ever followed by digits — never by a name —
// so a separator-preceded match is always a real participant boundary.
func admitKeyNames(colos, nf string) bool {
	marker := nf + "@"
	for off := 0; ; {
		i := strings.Index(colos[off:], marker)
		if i < 0 {
			return false
		}
		i += off
		if i == 0 {
			return true
		}
		switch colos[i-1] {
		case ',', '|', '=':
			return true
		}
		off = i + 1
	}
}

// ErrClosed reports a request arriving after Close. errorStatus maps
// it to 503 so retry policies treat it as a transient server condition,
// not a bad request.
var ErrClosed = errors.New("serve: service closed")

// Close stops the service. Requests already admitted finish, those
// still waiting for a slot included; later ones fail with ErrClosed.
func (s *Service) Close() {
	s.closeMu.Lock()
	s.closed = true
	s.closeMu.Unlock()
	s.wg.Wait()
	s.fb.Close()
}

// slots is a counting semaphore taken on the requesting goroutine.
// waiting counts the callers blocked on a full one: the backlog
// yala_queue_depth and the tenant gate's queue signal read.
type slots struct {
	ch      chan struct{}
	waiting atomic.Int64
}

// acquire takes a slot, waiting for one until ctx ends — abandoned
// clients must not keep handler goroutines parked forever.
func (sl *slots) acquire(ctx context.Context) error {
	select {
	case sl.ch <- struct{}{}:
		return nil
	default:
	}
	sl.waiting.Add(1)
	defer sl.waiting.Add(-1)
	select {
	case sl.ch <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (sl *slots) release() { <-sl.ch }

// withSlot runs fn on the caller's goroutine holding one of sl's slots.
// It fails with ErrClosed after Close, and with the context's error when
// the caller goes away before its slot frees, skipping the compute;
// neither counts as a server error.
func withSlot[T any](ctx context.Context, s *Service, sl *slots, fn func() (T, error)) (T, error) {
	var zero T
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return zero, ErrClosed
	}
	s.wg.Add(1)
	s.closeMu.RUnlock()
	defer s.wg.Done()
	if err := sl.acquire(ctx); err != nil {
		return zero, err
	}
	defer sl.release()
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	v, err := fn()
	if err != nil && !callerCanceled(ctx, err) {
		s.errors.Add(1)
	}
	return v, err
}

// callerCanceled reports a failure whose cause is the caller's own
// departure: the request context is dead and the error is its
// cancellation. Such outcomes answer 499 and stay out of the error
// counter — a flood of canceled clients says nothing about server
// health, and counting it would poison the shed signal the tenant gate
// and the autoscaler act on.
func callerCanceled(ctx context.Context, err error) bool {
	return ctx.Err() != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// freshTestbed returns a new testbed at the hardware class's NIC preset
// and the service's seed. Measurements on a fresh testbed are
// deterministic regardless of request interleaving — the property the
// response cache relies on.
func (s *Service) freshTestbed(hw string) (*testbed.Testbed, error) {
	nic, err := presetFor(hw)
	if err != nil {
		return nil, err
	}
	return testbed.New(nic, s.cfg.Registry.Seed), nil
}

// maxSoloEntries bounds the solo-measurement memo. Clients choose
// profiles freely, so without a cap a profile-sweeping client would grow
// the map (one full simulation result per distinct profile) forever.
// Eviction only costs a deterministic re-measurement later.
const maxSoloEntries = 4096

// soloMeasurement returns the NF's solo measurement at a profile on a
// hardware class, with duplicate-measurement suppression across
// concurrent requests. The cap is safe because measurements are
// deterministic — eviction only costs a re-measurement.
func (s *Service) soloMeasurement(hw, name string, prof traffic.Profile) (nicsim.Measurement, error) {
	return s.solo.Do(soloKey{hw, name, prof}, maxSoloEntries, func() (nicsim.Measurement, error) {
		start := time.Now()
		tb, err := s.freshTestbed(hw)
		if err != nil {
			return nicsim.Measurement{}, err
		}
		m, err := tb.SoloNF(name, prof)
		s.soloSeconds.Observe(time.Since(start).Seconds())
		s.soloFlows.Add(uint64(prof.Flows))
		return m, err
	})
}

// competitors resolves competitor specs into the backend-facing form:
// each co-resident's identity plus its memoized solo measurement.
func (s *Service) competitors(hw string, specs []CompetitorSpec) ([]backend.Competitor, error) {
	comps := make([]backend.Competitor, 0, len(specs))
	for _, spec := range specs {
		prof := spec.Profile.Profile()
		m, err := s.soloMeasurement(hw, spec.Name, prof)
		if err != nil {
			return nil, err
		}
		mm := m
		comps = append(comps, backend.Competitor{NF: spec.Name, Profile: prof, Solo: &mm})
	}
	return comps, nil
}

// scenarioFor builds the backend-facing scenario for the NF at prof next
// to specs: the competitors resolved to their memoized solos, and the
// target's own solo measured only if the backend asks for it.
func (s *Service) scenarioFor(hw, name string, prof traffic.Profile, specs []CompetitorSpec) (backend.Scenario, error) {
	comps, err := s.competitors(hw, specs)
	if err != nil {
		return backend.Scenario{}, err
	}
	return backend.Scenario{
		Profile:     prof,
		Competitors: comps,
		Solo: func() (float64, error) {
			m, err := s.soloMeasurement(hw, name, prof)
			if err != nil {
				return 0, err
			}
			return m.Throughput, nil
		},
	}, nil
}

// PredictRequest asks for an NF's throughput under a co-location.
type PredictRequest struct {
	NF          string           `json:"nf"`
	Profile     ProfileSpec      `json:"profile,omitzero"`
	Competitors []CompetitorSpec `json:"competitors,omitempty"`
	Backend     string           `json:"backend,omitempty"`
}

// PredictResponse is the predictor's answer. HW is set only for
// hardware-qualified requests.
type PredictResponse struct {
	NF           string      `json:"nf"`
	HW           string      `json:"hw,omitempty"`
	Backend      Backend     `json:"backend"`
	Profile      ProfileSpec `json:"profile"`
	SoloPPS      float64     `json:"solo_pps"`
	PredictedPPS float64     `json:"predicted_pps"`
	// PerResourcePPS and Bottleneck carry a per-resource breakdown for
	// backends that attribute (yala); extrapolating backends omit them.
	PerResourcePPS map[string]float64 `json:"per_resource_pps,omitempty"`
	Bottleneck     string             `json:"bottleneck,omitempty"`
	// rows is PerResourcePPS sorted by resource, made once with the
	// response: the wire encoding of a hit is byte-stable and ranges no map.
	rows []wire.ResourcePPS
}

// appendPredictKey appends the shared cache key for one prediction
// scenario; Compare and Diagnose derive from the same entries.
func appendPredictKey(b []byte, backendName Backend, hw, name string, prof traffic.Profile, comps []CompetitorSpec) []byte {
	b = append(append(append(b, "predict|"...), backendName...), '|')
	return appendScenarioKey(append(append(b, hw...), '|'), name, prof, comps)
}

func predictKey(backendName Backend, hw, name string, prof traffic.Profile, comps []CompetitorSpec) string {
	return string(appendPredictKey(nil, backendName, hw, name, prof, comps))
}

// predictCached answers one scenario through the shared predict cache,
// on the caller's goroutine (taking a compute slot is the caller's
// concern).
// Its lookup is quiet: the API entry point already counted this request
// in the hit/miss stats.
func (s *Service) predictCached(backendName Backend, hw, name string, prof traffic.Profile, comps []CompetitorSpec) (PredictResponse, error) {
	return s.predictKeyed(predictKey(backendName, hw, name, prof, comps), backendName, hw, name, prof, comps)
}

// predictKeyed is predictCached given the scenario's predictKey.
func (s *Service) predictKeyed(key string, backendName Backend, hw, name string, prof traffic.Profile, comps []CompetitorSpec) (PredictResponse, error) {
	// Read before the model resolves: a Reload or promotion that sweeps
	// while this computes must not find the response stored behind it.
	epoch := s.cache.Epoch()
	if v, ok := s.cache.getQuiet(key); ok {
		return v.(PredictResponse), nil
	}
	resp, err := s.predictUncached(backendName, hw, name, prof, comps)
	if err != nil {
		return PredictResponse{}, err
	}
	s.cache.PutAt(key, resp, epoch)
	return resp, nil
}

// PredictOn estimates throughput for the request's scenario: hw names a
// fleet hardware class ("" = the server's default NIC). Responses serve
// from the response cache when the scenario has been answered before. Only
// predictor work takes a compute slot — the slots bound compute, and a
// lookup is not compute.
func (s *Service) PredictOn(ctx context.Context, hw string, req PredictRequest) (PredictResponse, error) {
	return s.predictAt(ctx, hw, req, time.Time{})
}

// predictAt is PredictOn with its "cache" stage — validation, key and
// lookup: everything ahead of compute — starting at at, an instant the
// caller already read (zero: now). The key is rendered once, into a
// stack buffer, and looked up as bytes, so a hit allocates nothing; a
// miss (including the rare eviction race) makes the string and always
// takes a compute slot, so predictor work stays bounded no matter the
// HTTP concurrency.
func (s *Service) predictAt(ctx context.Context, hw string, req PredictRequest, at time.Time) (PredictResponse, error) {
	s.predicts.Add(1)
	csp := obs.StartSpanAt(ctx, "cache", at)
	backendName, err := s.validateScenarioOn(hw, req.NF, req.Profile, req.Competitors, req.Backend)
	if err != nil {
		s.errors.Add(1)
		return PredictResponse{}, err
	}
	prof := req.Profile.Profile()
	var kb [256]byte
	kbytes := appendPredictKey(kb[:0], backendName, hw, req.NF, prof, req.Competitors)
	v, ok := s.cache.getBytes(kbytes)
	at = csp.End()
	if ok {
		return v.(PredictResponse), nil
	}
	psp := obs.StartSpanAt(ctx, "predict", at)
	defer psp.End()
	key, comps := string(kbytes), canonSpecs(req.Competitors)
	return withSlot(ctx, s, &s.computeSlots, func() (PredictResponse, error) {
		return s.predictKeyed(key, backendName, hw, req.NF, prof, comps)
	})
}

// predictUncached computes a prediction straight from the models,
// through the backend interface — no backend-specific code remains on
// this path.
func (s *Service) predictUncached(backendName Backend, hw, name string, prof traffic.Profile, specs []CompetitorSpec) (PredictResponse, error) {
	b, ok := backend.Get(string(backendName))
	if !ok {
		return PredictResponse{}, badRequestf("unknown backend %q", backendName)
	}
	sc, err := s.scenarioFor(hw, name, prof, specs)
	if err != nil {
		return PredictResponse{}, err
	}
	model, err := s.reg.ModelOn(string(backendName), hw, name)
	if err != nil {
		return PredictResponse{}, err
	}
	pred, err := b.Predict(model, sc)
	if err != nil {
		return PredictResponse{}, err
	}
	fbKey := feedback.Key{NF: name, HW: hw, Backend: string(backendName)}
	if sm, ok := s.fb.ShadowModel(fbKey); ok {
		// Shadow-serve the candidate on live traffic: it predicts the
		// same scenario and the compare is counted, but its output goes
		// nowhere — the response below is built exclusively from the
		// live model's prediction.
		if _, serr := b.Predict(sm, sc); serr == nil {
			s.fb.RecordShadowCompare()
		}
	}
	resp := PredictResponse{
		NF:             name,
		HW:             hw,
		Backend:        backendName,
		Profile:        SpecOf(prof),
		SoloPPS:        pred.SoloPPS,
		PredictedPPS:   pred.PredictedPPS,
		PerResourcePPS: pred.PerResourcePPS,
		Bottleneck:     pred.Bottleneck,
	}
	for res, pps := range pred.PerResourcePPS {
		resp.rows = append(resp.rows, wire.ResourcePPS{Resource: res, PPS: pps})
	}
	sort.Slice(resp.rows, func(i, j int) bool { return resp.rows[i].Resource < resp.rows[j].Resource })
	return resp, nil
}

// validateScenarioOn is validateScenario plus the hardware qualifier,
// rejected before any model or measurement work happens.
func (s *Service) validateScenarioOn(hw, nfName string, prof ProfileSpec, comps []CompetitorSpec, backendName string) (Backend, error) {
	if _, err := presetFor(hw); err != nil {
		return "", err
	}
	return validateScenario(nfName, prof, comps, backendName)
}

// BatchResponse answers a batch — many prediction scenarios in one round
// trip, the amortization lever for high-throughput clients (an operator
// evaluating a whole arrival wave at once): one response per request,
// in order. A scenario that fails reports its error in Errors at the
// same index and a zero response; the batch itself still succeeds.
type BatchResponse struct {
	Responses []PredictResponse `json:"responses"`
	Errors    []string          `json:"errors,omitempty"`
}

// hwPredict is one batch element with its hardware qualifier resolved
// (parsed from the /v2 model ID or carried in the wire request).
type hwPredict struct {
	hw  string
	req PredictRequest
}

// predictOne and predictBatchAt are the typed wire verbs, handed the
// instant decoding ended (a batch's elements read their own clocks).
func (s *Service) predictOne(ctx context.Context, it hwPredict, at time.Time) (PredictResponse, error) {
	return s.predictAt(ctx, it.hw, it.req, at)
}

func (s *Service) predictBatchAt(ctx context.Context, items []hwPredict, _ time.Time) (BatchResponse, error) {
	return s.predictBatch(ctx, items)
}

// predictBatch serves every scenario, each through the cache. Elements
// run concurrently so a batch of misses overlaps on the compute slots
// instead of serializing; hits cost a lookup each.
func (s *Service) predictBatch(ctx context.Context, items []hwPredict) (BatchResponse, error) {
	// A malformed element fails the whole batch up front: element-level
	// Errors are for scenarios the service could not answer, not for
	// requests the client should not have sent.
	for i, it := range items {
		if _, err := s.validateScenarioOn(it.hw, it.req.NF, it.req.Profile, it.req.Competitors, it.req.Backend); err != nil {
			s.errors.Add(1)
			return BatchResponse{}, fmt.Errorf("requests[%d]: %w", i, err)
		}
	}
	resp := BatchResponse{Responses: make([]PredictResponse, len(items))}
	errs := make([]string, len(items))
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i, it := range items {
		wg.Add(1)
		go func(i int, it hwPredict) {
			defer wg.Done()
			one, err := s.PredictOn(ctx, it.hw, it.req)
			if err != nil {
				errs[i] = err.Error()
				failed.Store(true)
				return
			}
			resp.Responses[i] = one
		}(i, it)
	}
	wg.Wait()
	if failed.Load() {
		resp.Errors = errs
	}
	return resp, nil
}

// CompareRequest pits Yala against SLOMO on one scenario.
type CompareRequest struct {
	NF          string           `json:"nf"`
	Profile     ProfileSpec      `json:"profile,omitzero"`
	Competitors []CompetitorSpec `json:"competitors,omitempty"`
	// GroundTruth additionally co-runs the scenario on the simulator and
	// reports each predictor's error against the measurement.
	GroundTruth bool `json:"ground_truth,omitempty"`
}

// CompareResponse is the head-to-head result.
type CompareResponse struct {
	NF      string          `json:"nf"`
	HW      string          `json:"hw,omitempty"`
	Profile ProfileSpec     `json:"profile"`
	Yala    PredictResponse `json:"yala"`
	SLOMO   PredictResponse `json:"slomo"`

	MeasuredPPS float64 `json:"measured_pps,omitempty"`
	YalaErrPct  float64 `json:"yala_err_pct,omitempty"`
	SLOMOErrPct float64 `json:"slomo_err_pct,omitempty"`
}

// CompareOn runs both predictors on the same scenario on hardware class
// hw. It is assembled entirely from predict-keyed (and measure-keyed)
// cache entries, so a Compare after a Predict of the same scenario
// reuses that work instead of recomputing it under a separate key.
func (s *Service) CompareOn(ctx context.Context, hw string, req CompareRequest) (CompareResponse, error) {
	s.compares.Add(1)
	if _, err := s.validateScenarioOn(hw, req.NF, req.Profile, req.Competitors, ""); err != nil {
		s.errors.Add(1)
		return CompareResponse{}, err
	}
	prof := req.Profile.Profile()
	comps := canonSpecs(req.Competitors)
	// Warm fast path: every piece already resident → assemble inline.
	// Any missing piece (including an eviction race) takes a compute
	// slot; assembly itself is not compute.
	csp := obs.StartSpan(ctx, "cache")
	vy, okY := s.cache.Get(predictKey(BackendYala, hw, req.NF, prof, comps))
	vs, okS := s.cache.Get(predictKey(BackendSLOMO, hw, req.NF, prof, comps))
	truth, okM := 0.0, !req.GroundTruth
	if req.GroundTruth {
		if v, ok := s.cache.Get(measureKey(hw, req.NF, prof, comps)); ok {
			truth, okM = v.(float64), true
		}
	}
	csp.End()
	if okY && okS && okM {
		return assembleCompare(req.NF, hw, prof, vy.(PredictResponse), vs.(PredictResponse), req.GroundTruth, truth), nil
	}
	psp := obs.StartSpan(ctx, "predict")
	defer psp.End()
	return withSlot(ctx, s, &s.computeSlots, func() (CompareResponse, error) {
		yala, err := s.predictCached(BackendYala, hw, req.NF, prof, comps)
		if err != nil {
			return CompareResponse{}, err
		}
		sl, err := s.predictCached(BackendSLOMO, hw, req.NF, prof, comps)
		if err != nil {
			return CompareResponse{}, err
		}
		var truth float64
		if req.GroundTruth {
			if truth, err = s.measureCached(hw, req.NF, prof, comps); err != nil {
				return CompareResponse{}, err
			}
		}
		return assembleCompare(req.NF, hw, prof, yala, sl, req.GroundTruth, truth), nil
	})
}

// assembleCompare builds the head-to-head response from its parts.
func assembleCompare(nf, hw string, prof traffic.Profile, yala, sl PredictResponse, groundTruth bool, truth float64) CompareResponse {
	resp := CompareResponse{NF: nf, HW: hw, Profile: SpecOf(prof), Yala: yala, SLOMO: sl}
	if groundTruth {
		resp.MeasuredPPS = truth
		if truth > 0 {
			resp.YalaErrPct = 100 * math.Abs(yala.PredictedPPS-truth) / truth
			resp.SLOMOErrPct = 100 * math.Abs(sl.PredictedPPS-truth) / truth
		}
	}
	return resp
}

// measureKey caches ground-truth co-run measurements.
func measureKey(hw, name string, prof traffic.Profile, comps []CompetitorSpec) string {
	b := append(append([]byte("measure|"), hw...), '|')
	return string(appendScenarioKey(b, name, prof, comps))
}

// measureCached memoizes measureScenario in the response cache. Quiet
// lookup: the API entry point already counted this request.
func (s *Service) measureCached(hw, name string, prof traffic.Profile, comps []CompetitorSpec) (float64, error) {
	key := measureKey(hw, name, prof, comps)
	if v, ok := s.cache.getQuiet(key); ok {
		return v.(float64), nil
	}
	truth, err := s.measureScenario(hw, name, prof, comps)
	if err != nil {
		return 0, err
	}
	s.cache.Put(key, truth)
	return truth, nil
}

// measureScenario co-runs the scenario on a fresh testbed and returns the
// target's ground-truth throughput.
func (s *Service) measureScenario(hw, name string, prof traffic.Profile, specs []CompetitorSpec) (float64, error) {
	tb, err := s.freshTestbed(hw)
	if err != nil {
		return 0, err
	}
	ws := make([]*nicsim.Workload, 0, len(specs)+1)
	w, err := tb.Workload(name, prof)
	if err != nil {
		return 0, err
	}
	ws = append(ws, w)
	for _, spec := range specs {
		cw, err := tb.Workload(spec.Name, spec.Profile.Profile())
		if err != nil {
			return 0, err
		}
		ws = append(ws, cw)
	}
	ms, err := tb.Run(ws...)
	if err != nil {
		return 0, err
	}
	return ms[0].Throughput, nil
}

// ColoNF is one NF in an admission scenario: its traffic profile and SLA
// (maximum tolerated throughput drop relative to solo, e.g. 0.1).
type ColoNF struct {
	Name    string      `json:"name"`
	Profile ProfileSpec `json:"profile,omitzero"`
	SLA     float64     `json:"sla"`
}

// AdmitRequest asks whether placing Candidate on a NIC already hosting
// Residents keeps every SLA intact, per the chosen predictor.
type AdmitRequest struct {
	Residents []ColoNF `json:"residents"`
	Candidate ColoNF   `json:"candidate"`
	Backend   string   `json:"backend,omitempty"`
}

// AdmitResponse is the admission decision. Reason distinguishes a
// core-capacity rejection from a predicted SLA violation.
type AdmitResponse struct {
	Admit     bool    `json:"admit"`
	Backend   Backend `json:"backend"`
	Residents int     `json:"residents"`
	Reason    string  `json:"reason,omitempty"`
}

// AdmitOn answers an online admission-control query on hardware class
// hw: it reuses the placement package's feasibility primitive (§7.5.1)
// with registry models for any backend, on the class's NIC preset and
// core budget.
func (s *Service) AdmitOn(ctx context.Context, hw string, req AdmitRequest) (AdmitResponse, error) {
	s.admits.Add(1)
	if _, err := presetFor(hw); err != nil {
		s.errors.Add(1)
		return AdmitResponse{}, err
	}
	if err := req.validate(); err != nil {
		s.errors.Add(1)
		return AdmitResponse{}, err
	}
	backendName, _ := ParseBackend(req.Backend)
	// Canonical resident order (bytewise by coloKey, each rendered once)
	// makes the cache key and the fresh testbed's measurement order
	// independent of caller ordering.
	residents, keys := make([]ColoNF, len(req.Residents)), make([]string, len(req.Residents))
	for i, r := range req.Residents {
		k, j := coloKey(r), i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j], residents[j] = keys[j-1], residents[j-1]
		}
		keys[j], residents[j] = k, r
	}
	key := "admit|" + string(backendName) + "|" + hw + "|" + strings.Join(keys, ",") + "|cand=" + coloKey(req.Candidate)
	csp := obs.StartSpan(ctx, "cache")
	v, ok := s.cache.Get(key)
	csp.End()
	if ok {
		return v.(AdmitResponse), nil
	}
	psp := obs.StartSpan(ctx, "predict")
	defer psp.End()
	return withSlot(ctx, s, &s.computeSlots, func() (AdmitResponse, error) {
		return s.admit(backendName, hw, key, residents, req.Candidate)
	})
}

func (s *Service) admit(backendName Backend, hw, key string, residents []ColoNF, candidate ColoNF) (AdmitResponse, error) {
	epoch := s.cache.Epoch() // before any model resolves, as in predictKeyed
	// Load every model involved before building the simulator, so the
	// feasibility pass never trains under its own latency budget. A fresh
	// simulator per request keeps the answer a pure function of the
	// request (the simulator's measurement caches are order-dependent).
	strat := placement.PredictionAware(string(backendName))
	tb, err := s.freshTestbed(hw)
	if err != nil {
		return AdmitResponse{}, err
	}
	sim := placement.NewSimulator(tb)

	// Core capacity first — placement always pairs the SLA check with the
	// Fits check, and an infeasible core budget needs no predictions.
	if !sim.Fits(len(residents)) {
		resp := AdmitResponse{Admit: false, Backend: backendName, Residents: len(residents), Reason: "cores"}
		s.cache.PutAt(key, resp, epoch)
		return resp, nil
	}

	names := map[string]bool{candidate.Name: true}
	for _, r := range residents {
		names[r.Name] = true
	}
	for name := range names {
		m, err := s.reg.ModelOn(string(backendName), hw, name)
		if err != nil {
			return AdmitResponse{}, err
		}
		sim.SetModel(string(backendName), name, m)
	}

	arr := make([]placement.Arrival, len(residents))
	for i, r := range residents {
		arr[i] = placement.Arrival{Name: r.Name, Profile: r.Profile.Profile(), SLA: r.SLA}
	}
	cand := placement.Arrival{
		Name:    candidate.Name,
		Profile: candidate.Profile.Profile(),
		SLA:     candidate.SLA,
	}
	// Seed the simulator with the service's memoized solo measurements:
	// the feasibility pass then runs no simulations of its own, and
	// repeated admits over the same NFs reuse the same measurements.
	for _, a := range append(append([]placement.Arrival(nil), arr...), cand) {
		m, err := s.soloMeasurement(hw, a.Name, a.Profile)
		if err != nil {
			return AdmitResponse{}, err
		}
		sim.SeedSolo(a, m)
	}
	ok, err := sim.Feasible(arr, cand, strat)
	if err != nil {
		return AdmitResponse{}, err
	}
	resp := AdmitResponse{Admit: ok, Backend: backendName, Residents: len(residents)}
	if !ok {
		resp.Reason = "sla"
	}
	s.cache.PutAt(key, resp, epoch)
	return resp, nil
}

// validate rejects malformed admission requests: every participant must
// be a catalog NF with a well-formed profile and an SLA in [0, 1].
func (r AdmitRequest) validate() error {
	if _, err := ParseBackend(r.Backend); err != nil {
		return badRequestf("%v", err)
	}
	if err := r.Candidate.validate(); err != nil {
		return fmt.Errorf("candidate: %w", err)
	}
	for i, res := range r.Residents {
		if err := res.validate(); err != nil {
			return fmt.Errorf("residents[%d]: %w", i, err)
		}
	}
	return nil
}

// validate checks one admission participant.
func (c ColoNF) validate() error {
	if err := validNF(c.Name); err != nil {
		return err
	}
	if err := c.Profile.validate(); err != nil {
		return err
	}
	if c.SLA < 0 || c.SLA > 1 {
		return badRequestf("SLA %g out of range [0, 1]", c.SLA)
	}
	return nil
}

// coloKey renders one admission participant canonically. The SLA prints
// at full precision — a truncated rendering would alias near-equal SLAs
// onto one cache key and serve the wrong admission decision.
func coloKey(c ColoNF) string {
	b := append(appendSpecKey(nil, CompetitorSpec{c.Name, c.Profile}), '~')
	return string(strconv.AppendFloat(b, c.SLA, 'g', -1, 64))
}

// DiagnoseRequest asks which resource bottlenecks the NF in a scenario.
type DiagnoseRequest struct {
	NF          string           `json:"nf"`
	Profile     ProfileSpec      `json:"profile,omitzero"`
	Competitors []CompetitorSpec `json:"competitors,omitempty"`
}

// DiagnoseResponse is Yala's bottleneck attribution (§7.5.2).
type DiagnoseResponse struct {
	NF             string             `json:"nf"`
	HW             string             `json:"hw,omitempty"`
	Profile        ProfileSpec        `json:"profile"`
	Bottleneck     string             `json:"bottleneck"`
	SoloPPS        float64            `json:"solo_pps"`
	PredictedPPS   float64            `json:"predicted_pps"`
	DropPct        float64            `json:"drop_pct"`
	PerResourcePPS map[string]float64 `json:"per_resource_pps"`
}

// DiagnoseOn attributes the scenario's predicted slowdown on hardware
// class hw to a resource. The response is pure derivation from the Yala
// prediction, so it shares the predict-keyed cache entry instead of
// storing its own.
func (s *Service) DiagnoseOn(ctx context.Context, hw string, req DiagnoseRequest) (DiagnoseResponse, error) {
	s.diagnoses.Add(1)
	if _, err := s.validateScenarioOn(hw, req.NF, req.Profile, req.Competitors, ""); err != nil {
		s.errors.Add(1)
		return DiagnoseResponse{}, err
	}
	prof := req.Profile.Profile()
	comps := canonSpecs(req.Competitors)
	csp := obs.StartSpan(ctx, "cache")
	v, ok := s.cache.Get(predictKey(BackendYala, hw, req.NF, prof, comps))
	csp.End()
	if ok {
		return diagnoseFrom(v.(PredictResponse)), nil
	}
	psp := obs.StartSpan(ctx, "predict")
	defer psp.End()
	return withSlot(ctx, s, &s.computeSlots, func() (DiagnoseResponse, error) {
		pred, err := s.predictCached(BackendYala, hw, req.NF, prof, comps)
		if err != nil {
			return DiagnoseResponse{}, err
		}
		return diagnoseFrom(pred), nil
	})
}

// diagnoseFrom derives the diagnosis view of a Yala prediction.
func diagnoseFrom(pred PredictResponse) DiagnoseResponse {
	resp := DiagnoseResponse{
		NF:             pred.NF,
		HW:             pred.HW,
		Profile:        pred.Profile,
		Bottleneck:     pred.Bottleneck,
		SoloPPS:        pred.SoloPPS,
		PredictedPPS:   pred.PredictedPPS,
		PerResourcePPS: pred.PerResourcePPS,
	}
	if pred.SoloPPS > 0 {
		resp.DropPct = 100 * (pred.SoloPPS - pred.PredictedPPS) / pred.SoloPPS
	}
	return resp
}

// ServiceStats is the operator-facing counter snapshot; GET /v2/stats
// wraps it with the registered-backend list (statsV2).
type ServiceStats struct {
	UptimeSec       float64           `json:"uptime_sec"`
	Workers         int               `json:"workers"`
	Requests        map[string]uint64 `json:"requests"`
	Errors          uint64            `json:"errors"`
	Cache           CacheStats        `json:"cache"`
	Models          []ModelInfo       `json:"models"`
	PersistFailures uint64            `json:"persist_failures,omitempty"`
	LastPersistErr  string            `json:"last_persist_error,omitempty"`
}

// Stats snapshots the service counters.
func (s *Service) Stats() ServiceStats {
	fails, lastErr := s.reg.PersistFailures()
	return ServiceStats{
		UptimeSec: time.Since(s.started).Seconds(),
		Workers:   s.cfg.Workers,
		Requests: map[string]uint64{
			"predict":     s.predicts.Load(),
			"compare":     s.compares.Load(),
			"admit":       s.admits.Load(),
			"diagnose":    s.diagnoses.Load(),
			"cluster_run": s.clusterRuns.Load(),
			"ingest":      s.ingests.Load(),
		},
		Errors:          s.errors.Load(),
		Cache:           s.cache.Stats(),
		Models:          s.reg.Models(),
		PersistFailures: fails,
		LastPersistErr:  lastErr,
	}
}
