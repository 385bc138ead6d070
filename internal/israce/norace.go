//go:build !race

package israce

// Enabled is true under -race.
const Enabled = false
