package main

import (
	"fmt"
	"reflect"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/pkg/yalaclient"
)

// check is one output verification: a failed check makes the run
// incorrect and the exit code non-zero.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func checkErr(name string, err error) check {
	if err != nil {
		return check{Name: name, Detail: err.Error()}
	}
	return check{Name: name, OK: true}
}

func checkThat(name string, ok bool, format string, args ...any) check {
	return check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
}

// asResult renders the service's in-process answer in the SDK's shape,
// field for field, so transport answers can be compared with it.
func asResult(r serve.PredictResponse) yalaclient.PredictResult {
	return yalaclient.PredictResult{
		NF:             r.NF,
		HW:             r.HW,
		Backend:        string(r.Backend),
		Profile:        yalaclient.ProfileSpec{Flows: r.Profile.Flows, PktSize: r.Profile.PktSize, MTBR: r.Profile.MTBR},
		SoloPPS:        r.SoloPPS,
		PredictedPPS:   r.PredictedPPS,
		PerResourcePPS: r.PerResourcePPS,
		Bottleneck:     r.Bottleneck,
	}
}

// sameAnswer reports the first field on which two answers to one
// scenario differ. Floats must match bit for bit: every transport
// carries the same float64, none may round it.
func sameAnswer(what string, want, got yalaclient.PredictResult) error {
	if got.PredictedPPS <= 0 {
		return fmt.Errorf("%s: predicted_pps %g is not positive", what, got.PredictedPPS)
	}
	// An empty attribution map travels as an absent one.
	if len(want.PerResourcePPS) == 0 {
		want.PerResourcePPS = nil
	}
	if len(got.PerResourcePPS) == 0 {
		got.PerResourcePPS = nil
	}
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("%s: answers differ:\n  want %+v\n  got  %+v", what, flat(want), flat(got))
	}
	return nil
}

// flat dereferences the MTBR pointer so a mismatch prints values, not
// addresses.
func flat(r yalaclient.PredictResult) string {
	mtbr := "unset"
	if r.Profile.MTBR != nil {
		mtbr = fmt.Sprint(*r.Profile.MTBR)
	}
	return fmt.Sprintf("{%s %s %s (%d,%d,%s) solo=%v pred=%v %v %s}", r.NF, r.HW, r.Backend,
		r.Profile.Flows, r.Profile.PktSize, mtbr, r.SoloPPS, r.PredictedPPS, r.PerResourcePPS, r.Bottleneck)
}

// sameFleetOutcome compares two replays of one stream on every field
// but the two wall-clock decision latencies.
func sameFleetOutcome(a, b cluster.PolicyResult) error {
	a.DecisionP50, a.DecisionP99, b.DecisionP50, b.DecisionP99 = 0, 0, 0, 0
	if a != b {
		return fmt.Errorf("replays differ:\n  first %+v\n  later %+v", a, b)
	}
	return nil
}

// fleetInvariant is the accounting identity every policy run satisfies:
// each arrival was admitted, rejected, or placed and rolled back.
func fleetInvariant(r cluster.PolicyResult) error {
	if r.Admitted+r.Rejected+r.Rollbacks != r.Arrivals {
		return fmt.Errorf("admitted %d + rejected %d + rollbacks %d != arrivals %d", r.Admitted, r.Rejected, r.Rollbacks, r.Arrivals)
	}
	return nil
}
