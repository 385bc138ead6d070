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
//     duplicate loads under concurrency and training-and-persisting on
//     demand when a model file is absent.
//   - Service answers Predict / Compare / Admit / Diagnose requests
//     through a bounded worker pool, with a sharded LRU cache keyed on
//     (NF, competitor set, traffic profile) — sound because predictions
//     are deterministic functions of that key.
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
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/backend"
	"repro/internal/nf"
	"repro/internal/traffic"
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

// validate rejects malformed traffic profiles. Zero values mean "use the
// default attribute" on the wire, so only negative or absurd values are
// errors.
func (p ProfileSpec) validate() error {
	if p.Flows < 0 || p.Flows > maxProfileFlows {
		return badRequestf("profile flows %d out of range [0, %d]", p.Flows, maxProfileFlows)
	}
	if p.PktSize < 0 || p.PktSize > maxProfilePktSize {
		return badRequestf("profile pktsize %d out of range [0, %d]", p.PktSize, maxProfilePktSize)
	}
	if p.MTBR != nil && (*p.MTBR < 0 || *p.MTBR > maxProfileMTBR) {
		return badRequestf("profile mtbr %g out of range [0, %g]", *p.MTBR, float64(maxProfileMTBR))
	}
	return nil
}

// validateScenario checks the (NF, profile, competitors, backend) tuple
// every prediction-shaped request carries.
func validateScenario(nfName string, prof ProfileSpec, comps []CompetitorSpec, backend string) error {
	if _, err := ParseBackend(backend); err != nil {
		return badRequestf("%v", err)
	}
	if err := validNF(nfName); err != nil {
		return err
	}
	if err := prof.validate(); err != nil {
		return err
	}
	for i, c := range comps {
		if err := validNF(c.Name); err != nil {
			return fmt.Errorf("competitors[%d]: %w", i, err)
		}
		if err := c.Profile.validate(); err != nil {
			return fmt.Errorf("competitors[%d]: %w", i, err)
		}
	}
	return nil
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

// ProfileSpec is a traffic profile on the wire. Absent attributes fall
// back to the paper's default profile. MTBR is a pointer because 0
// matches/MB is a valid value (a match-free workload) that must remain
// distinguishable from "not specified"; flows and packet size have
// positive lower bounds, so 0 can mean absent there.
type ProfileSpec struct {
	Flows   int      `json:"flows,omitempty"`
	PktSize int      `json:"pktsize,omitempty"`
	MTBR    *float64 `json:"mtbr,omitempty"`
}

// F64 builds the pointer form MTBR takes in a ProfileSpec literal.
func F64(v float64) *float64 { return &v }

// Profile resolves the spec against the default profile.
func (p ProfileSpec) Profile() traffic.Profile {
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
	return ProfileSpec{Flows: p.Flows, PktSize: p.PktSize, MTBR: F64(p.MTBR)}
}

// CompetitorSpec names one co-located NF and its traffic profile.
type CompetitorSpec struct {
	Name    string      `json:"name"`
	Profile ProfileSpec `json:"profile,omitzero"`
}

// specKey renders one competitor canonically.
func specKey(c CompetitorSpec) string {
	return fmt.Sprintf("%s@%s", c.Name, c.Profile.Profile())
}

// canonSpecs returns the competitor set in canonical order. Both the
// cache key and the computation must see one order: counter aggregation
// and ground-truth co-runs are order-sensitive (IPC averaging, per-run
// RNG draws), so serving a sorted-key cache entry for an unsorted
// computation would break the cache-equals-direct invariant.
func canonSpecs(specs []CompetitorSpec) []CompetitorSpec {
	out := append([]CompetitorSpec(nil), specs...)
	sort.Slice(out, func(i, j int) bool { return specKey(out[i]) < specKey(out[j]) })
	return out
}

// scenarioKey renders the deterministic cache-key fragment for a target
// NF, its profile and a canonically ordered competitor set (canonSpecs).
func scenarioKey(nf string, prof traffic.Profile, comps []CompetitorSpec) string {
	parts := make([]string, len(comps))
	for i, c := range comps {
		parts[i] = specKey(c)
	}
	return fmt.Sprintf("%s@%s|%s", nf, prof, strings.Join(parts, ","))
}

// The quick on-demand training configurations moved to internal/backend
// (QuickYalaConfig, QuickSLOMOConfig) alongside the backends that
// consume them.
