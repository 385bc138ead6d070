//go:build race

// Package israce reports whether the race detector is compiled in, for
// tests whose assertion the detector itself invalidates — allocation
// counts: instrumented code allocates where plain code does not.
package israce

// Enabled is true under -race.
const Enabled = true
