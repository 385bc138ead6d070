package feedback

import (
	"fmt"
	"strings"

	"repro/internal/backend"
)

// TrainCalibrated is the retrain both feedback loops (the serving
// layer's and the cluster orchestrator's) hand the controller as its
// Train callback: fit a candidate for k's NF through the backend
// interface against env's NIC, frequency-scaled by scale. scale is the
// controller's absolute calibration factor against nominal hardware —
// the live model's own factor times the gate's trusted median
// measured/predicted ratio, already clamped — and the simulator
// expresses it as a DVFS factor, so the candidate learns the hardware
// the measurements describe, not the hardware the old model assumed.
func TrainCalibrated(k Key, env backend.TrainEnv, scale float64) (backend.Model, error) {
	b, ok := backend.Get(k.Backend)
	if !ok {
		return nil, fmt.Errorf("feedback: unknown backend %q (have %s)", k.Backend, strings.Join(backend.Names(), ", "))
	}
	env.NIC = env.NIC.ScaleFrequency(scale)
	return b.Train(env, k.NF)
}
