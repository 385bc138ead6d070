// Package serve is the online prediction-serving subsystem: the
// long-running system the paper's operators would deploy, layered over
// the offline artifacts the rest of the tree produces.
//
// The paper frames Yala's predictor as an online component consulted at
// NF-arrival time — persisted models are loaded "without re-profiling"
// and drive admission and placement decisions. This package turns the
// one-shot CLI flow into a service:
//
//   - ModelRegistry discovers and lazily loads persisted per-NF models
//     (Yala and the SLOMO baseline) from a model directory, suppressing
//     duplicate loads under concurrency (a flight.Group) and
//     training-and-persisting on demand when a model file is absent.
//   - Service answers Predict / Compare / Admit / Diagnose requests,
//     each computing on its own goroutine under one of Workers compute
//     slots, with a sharded LRU cache keyed on (NF, competitor set,
//     traffic profile) — sound because predictions are deterministic
//     functions of that key, and because a response computed across a
//     Reload or promotion is never stored behind its sweep (Cache.PutAt).
//   - Handler exposes the service over HTTP/JSON (yala serve). The /v2
//     routes, error envelope, request-ID rule and URL grammar it
//     implements are specified — and the shared parts written — in
//     internal/api. Its client half — the SDK-driven load generator
//     behind yala loadgen — lives in internal/loadgen, which this
//     package never imports.
//   - Telemetry (internal/obs) rides every request: GET /metrics serves
//     Prometheus-format counters, gauges and latency histograms, each
//     request carries an X-Request-Id through a trace context, and
//     per-stage spans (decode, cache, predict, encode) attribute where
//     server time went — surfaced in /metrics, the optional access log,
//     and internal/loadgen's server-side stage breakdown.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"repro/internal/backend"
	"repro/internal/nf"
	"repro/internal/traffic"
	"repro/internal/wire"
)

// ErrBadRequest tags request errors the client caused — unknown NF
// names, malformed traffic profiles, unknown backends or policies.
// errorStatus maps it to 400 on either transport so clients can
// distinguish "fix your request" from "the service could not answer"
// (422) and transient conditions (503).
var ErrBadRequest = errors.New("bad request")

// badRequestf builds an ErrBadRequest-tagged error.
func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}

// validNF rejects NF names outside the catalog before any model or
// measurement work happens.
func validNF(name string) error {
	if strings.TrimSpace(name) == "" {
		return badRequestf("missing NF name")
	}
	if !nf.Known(name) {
		return badRequestf("unknown NF %q (have %s)", name, strings.Join(nf.Names(), ", "))
	}
	return nil
}

// Profile attribute sanity bounds. The simulator would accept larger
// values, but a request beyond these is a malformed profile, not a
// workload — and unbounded values turn one request into an arbitrarily
// expensive simulation.
const (
	maxProfileFlows   = 1_000_000
	maxProfilePktSize = 9216 // jumbo frame
	maxProfileMTBR    = 1e5
)

// validateProfile rejects malformed traffic profiles. Zero values mean
// "use the default attribute" on the wire, so only negative or absurd
// values are errors. The MTBR check is written as "not inside the range"
// so that NaN, which a typed frame's raw float64 bits can carry and
// which fails every comparison, is refused too.
func validateProfile(p ProfileSpec) error {
	if p.Flows < 0 || p.Flows > maxProfileFlows {
		return badRequestf("profile flows %d out of range [0, %d]", p.Flows, maxProfileFlows)
	}
	if p.PktSize < 0 || p.PktSize > maxProfilePktSize {
		return badRequestf("profile pktsize %d out of range [0, %d]", p.PktSize, maxProfilePktSize)
	}
	if p.MTBR != nil && !(*p.MTBR >= 0 && *p.MTBR <= maxProfileMTBR) {
		return badRequestf("profile mtbr %g out of range [0, %g]", *p.MTBR, float64(maxProfileMTBR))
	}
	return nil
}

// validateScenario checks the (NF, profile, competitors, backend) tuple
// every prediction-shaped request carries and returns the backend it
// names, parsed once.
func validateScenario(nfName string, prof ProfileSpec, comps []CompetitorSpec, backend string) (Backend, error) {
	b, err := ParseBackend(backend)
	if err != nil {
		return "", badRequestf("%v", err)
	}
	if err := validNF(nfName); err != nil {
		return "", err
	}
	if err := validateProfile(prof); err != nil {
		return "", err
	}
	for i, c := range comps {
		if err := validNF(c.Name); err != nil {
			return "", fmt.Errorf("competitors[%d]: %w", i, err)
		}
		if err := validateProfile(c.Profile); err != nil {
			return "", fmt.Errorf("competitors[%d]: %w", i, err)
		}
	}
	return b, nil
}

// Backend selects which predictor answers a request. Valid values are
// the names registered with internal/backend.
type Backend string

// The built-in prediction backends.
const (
	BackendYala  Backend = "yala"
	BackendSLOMO Backend = "slomo"
)

// ParseBackend normalizes a request's backend field against the backend
// registry; empty selects the default (yala). Any registered backend —
// including ones this package has never heard of — parses.
func ParseBackend(s string) (Backend, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	if name == "" {
		name = backend.DefaultName
	}
	if _, ok := backend.Get(name); !ok {
		return "", fmt.Errorf("serve: unknown backend %q (have %s)", s, strings.Join(backend.Names(), ", "))
	}
	return Backend(name), nil
}

// The /v2 payloads have their one definition in internal/wire, shared
// with the SDK and the frame codec; these are the service's names for
// the ones its API takes and returns. AdmitRequest, CompareRequest,
// DiagnoseRequest and IngestMeasurement are the service's own requests,
// whose model the /v2 path or item names.
type (
	ProfileSpec      = wire.Profile
	CompetitorSpec   = wire.Competitor
	ColoNF           = wire.ColoNF
	PredictRequest   = wire.PredictRequest
	PredictResponse  = wire.PredictResponse
	BatchResponse    = wire.BatchResponse
	CompareResponse  = wire.CompareResponse
	AdmitResponse    = wire.AdmitResponse
	DiagnoseResponse = wire.DiagnoseResponse
	ModelInfo        = wire.ModelInfo
	IngestResult     = wire.IngestResult
	CacheStats       = wire.CacheStats
)

// profileOf resolves a profile spec against the default profile.
func profileOf(p ProfileSpec) traffic.Profile {
	prof := traffic.Default
	if p.Flows > 0 {
		prof.Flows = p.Flows
	}
	if p.PktSize > 0 {
		prof.PktSize = p.PktSize
	}
	if p.MTBR != nil {
		prof.MTBR = *p.MTBR
	}
	return prof
}

// SpecOf converts a resolved profile back to its wire form.
func SpecOf(p traffic.Profile) ProfileSpec {
	return ProfileSpec{Flows: p.Flows, PktSize: p.PktSize, MTBR: wire.F64(p.MTBR)}
}

// appendSpecKey renders one competitor canonically: "name@(f, p, m)".
func appendSpecKey(b []byte, c CompetitorSpec) []byte {
	return profileOf(c.Profile).AppendText(append(append(b, c.Name...), '@'))
}

// seg is one competitor's rendering in a scratch buffer and the
// position in the request it came from.
type seg struct{ lo, hi, from int }

// renderCanon renders each competitor once into buf and returns the
// renderings in canonical order: bytewise over the rendered text (not
// numeric — "(10000, …" sorts before "(9000, …"). Sets are tiny, so it
// is an insertion sort; an ordered set costs a comparison per
// competitor and moves nothing. Callers pass stack scratch (192 bytes,
// 8 segs: a NIC's worth); a larger set spills to the heap.
func renderCanon(buf []byte, segs []seg, specs []CompetitorSpec) ([]byte, []seg) {
	for i, c := range specs {
		lo, j := len(buf), len(segs)
		buf, segs = appendSpecKey(buf, c), append(segs, seg{})
		for ; j > 0 && bytes.Compare(buf[segs[j-1].lo:segs[j-1].hi], buf[lo:]) > 0; j-- {
			segs[j] = segs[j-1]
		}
		segs[j] = seg{lo, len(buf), i}
	}
	return buf, segs
}

// canonSpecs returns the competitor set in canonical order. Both the
// cache key and the computation must see one order: counter aggregation
// and ground-truth co-runs are order-sensitive (IPC averaging, per-run
// RNG draws), so serving a sorted-key cache entry for an unsorted
// computation would break the cache-equals-direct invariant. A set
// already in order is returned as is.
func canonSpecs(specs []CompetitorSpec) []CompetitorSpec {
	var sb [192]byte
	var ss [8]seg
	_, segs := renderCanon(sb[:0], ss[:0], specs)
	ordered := true
	for i, s := range segs {
		ordered = ordered && s.from == i
	}
	if ordered {
		return specs
	}
	out := make([]CompetitorSpec, len(specs))
	for i, s := range segs {
		out[i] = specs[s.from]
	}
	return out
}

// appendScenarioKey appends the deterministic cache-key fragment for a
// target NF, its profile and its competitors — "nf@profile|c1,c2,…",
// canonically ordered whatever order comps is in. The text is a format:
// reloadAffects parses it, feedback stores it, TestKeysPinned pins it.
func appendScenarioKey(b []byte, nf string, prof traffic.Profile, comps []CompetitorSpec) []byte {
	b = append(prof.AppendText(append(append(b, nf...), '@')), '|')
	var sb [192]byte
	var ss [8]seg
	buf, segs := renderCanon(sb[:0], ss[:0], comps)
	for i, s := range segs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, buf[s.lo:s.hi]...)
	}
	return b
}

func scenarioKey(nf string, prof traffic.Profile, comps []CompetitorSpec) string {
	return string(appendScenarioKey(nil, nf, prof, comps))
}

// The quick on-demand training configurations moved to internal/backend
// (QuickYalaConfig, QuickSLOMOConfig) alongside the backends that
// consume them.
