package feedback

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/backend"
)

// Calibration bounds for feedback-driven retraining: the gate's
// measured/predicted ratio is applied as a DVFS-style frequency scale
// on the training NIC, clamped so one pathological window cannot
// train against absurd hardware.
const (
	minCalibrationScale = 0.25
	maxCalibrationScale = 4.0
)

// TrainCalibrated is the retrain both feedback loops (the serving
// layer's and the cluster orchestrator's) hand the controller as its
// Train callback: fit a candidate for k's NF through the backend
// interface against env's NIC, frequency-scaled by scale. The trusted
// median measured/predicted ratio is exactly the uniform slowdown (or
// speedup) the live measurements exhibit, and the simulator expresses
// that as a DVFS factor — so the candidate learns the hardware the
// measurements describe, not the hardware the old model assumed. It
// returns the scale actually applied, after clamping.
func TrainCalibrated(k Key, env backend.TrainEnv, scale float64) (backend.Model, float64, error) {
	b, ok := backend.Get(k.Backend)
	if !ok {
		return nil, 0, fmt.Errorf("feedback: unknown backend %q (have %s)", k.Backend, strings.Join(backend.Names(), ", "))
	}
	scale = math.Min(math.Max(scale, minCalibrationScale), maxCalibrationScale)
	base := env.NIC.FreqScale
	if base <= 0 {
		base = 1
	}
	env.NIC = env.NIC.WithFrequencyScale(base * scale)
	m, err := b.Train(env, k.NF)
	return m, scale, err
}
