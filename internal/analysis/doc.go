// Package analysis is the repo's own static-analysis suite — the
// engine behind `yala lint`. It is built entirely on the standard
// library's go/ast, go/parser and go/types (no golang.org/x/tools),
// including a recursive source importer that type-checks the whole
// module and its std-lib dependencies from source.
//
// The suite enforces invariants the test suite can only sample:
//
//   - detmap: no ranging over maps in determinism-critical packages
//     (internal/sim, placement, trace, cluster, wire, testbed and
//     experiments) or in the commands that print reports (cmd/yala,
//     cmd/experiments) unless the loop only collects keys for sorting —
//     replay determinism is the product's core guarantee, and a report
//     prints its lines in the same order every run.
//   - wallclock: no time.Now/Since/Until or math/rand in the seven
//     determinism-critical packages (not the commands, which time real
//     work); simulation time and seeded randomness only.
//   - boundedread: no io.ReadAll on an http body or net.Conn without
//     an io.LimitReader/http.MaxBytesReader cap, anywhere in the repo.
//   - envelope: handlers in internal/serve and internal/gateway must
//     send errors through the structured envelope helpers, not raw
//     http.Error / WriteHeader(4xx|5xx).
//   - metricname: metric series registered on obs.Registry must be
//     literal, match ^(yala|gateway|cluster)_[a-z0-9_]+$, and func
//     registrations must not silently replace an existing series.
//   - bodyclose: an *http.Response obtained in a function must have
//     its Body closed there or escape to a caller.
//   - unusedexport: every export under internal/ has a user outside
//     tests somewhere in the module; a method callable through an
//     interface its receiver satisfies counts as used.
//
// Findings are suppressed — one at a time, with a mandatory reason —
// by a directive on the offending line or the line above:
//
//	//yalalint:ignore wallclock socket handshake deadline, real I/O
//
// A directive that suppresses nothing (stale), names an unknown
// analyzer, or omits the reason is itself a finding, so exceptions
// cannot outlive the code they excused.
//
// Run is the entry point: it loads packages matching go-style patterns
// rooted at a module directory, applies the analyzers, resolves ignore
// directives, and returns a deterministic, sorted Report. `yala lint`
// and the CI lint step are thin wrappers over it; the golden tests in
// this package pin each analyzer's exact findings on fixtures under
// testdata/src.
package analysis
