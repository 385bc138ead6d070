//go:build !race

package israce

// Enabled is true under -race.
//
//yalalint:ignore unusedexport allocation gates in six packages' tests (serve's TestPredictOnHitAllocs, yalaclient's TestWirePredictAllocs, ...) skip under -race
const Enabled = false
