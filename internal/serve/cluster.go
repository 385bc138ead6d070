package serve

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// Cluster-run request bounds. A comparison run is a batch job — tens of
// seconds of simulation for the largest accepted shapes — so the server
// caps the scenario rather than letting one request monopolize it.
const (
	maxClusterNICs       = 256
	maxClusterArrivals   = 5000
	maxClusterProfiles   = 64
	maxClusterClassCores = 1024
)

// ClusterRunRequest asks the server to run a fleet-orchestration
// scenario under several scheduling policies and return the comparison.
// Zero values take the cluster package's defaults; Policies empty means
// all built-in policies.
type ClusterRunRequest struct {
	NICs int `json:"nics,omitempty"`
	// Classes declares a heterogeneous fleet (ordered class:count
	// slices, optional per-NIC core override); empty means NICs × the
	// server's base hardware class. Workload selects the trace-generator
	// family (churn, diurnal, flashcrowd, heavytail); empty means churn.
	Classes      []cluster.ClassSpec `json:"classes,omitempty"`
	Workload     string              `json:"workload,omitempty"`
	Arrivals     int                 `json:"arrivals,omitempty"`
	Seed         uint64              `json:"seed,omitempty"`
	NFs          []string            `json:"nfs,omitempty"`
	Policies     []string            `json:"policies,omitempty"`
	Profiles     int                 `json:"profiles,omitempty"`
	MeanIAT      float64             `json:"mean_iat,omitempty"`
	MeanLifetime float64             `json:"mean_lifetime,omitempty"`
	// DriftProb is a pointer because 0 (no drift) must stay
	// distinguishable from "use the default drift rate".
	DriftProb *float64 `json:"drift_prob,omitempty"`
	SLALo     float64  `json:"sla_lo,omitempty"`
	SLAHi     float64  `json:"sla_hi,omitempty"`
	// ShiftAt/ShiftScale apply a mid-run hardware shift (ground truth
	// moves to a frequency-scaled environment at the given time); Online
	// closes the feedback loop so prediction-guided policies retrain and
	// promote against the shifted measurements mid-run.
	ShiftAt    float64 `json:"shift_at,omitempty"`
	ShiftScale float64 `json:"shift_scale,omitempty"`
	Online     bool    `json:"online,omitempty"`
}

// ClusterPoliciesResponse lists the scheduling policies the server runs.
type ClusterPoliciesResponse struct {
	Policies []string `json:"policies"`
}

// scenario resolves the request into a validated cluster scenario.
func (r ClusterRunRequest) scenario() (cluster.Scenario, error) {
	if r.NICs < 0 || r.NICs > maxClusterNICs {
		return cluster.Scenario{}, badRequestf("nics %d out of range [0, %d]", r.NICs, maxClusterNICs)
	}
	total := 0
	for i, cs := range r.Classes {
		if _, err := cluster.ClassConfig(cs.Class); err != nil {
			return cluster.Scenario{}, badRequestf("classes[%d]: %v", i, err)
		}
		if cs.Count <= 0 {
			return cluster.Scenario{}, badRequestf("classes[%d]: count %d must be positive", i, cs.Count)
		}
		if cs.Cores < 0 || cs.Cores > maxClusterClassCores {
			return cluster.Scenario{}, badRequestf("classes[%d]: cores %d out of range [0, %d]", i, cs.Cores, maxClusterClassCores)
		}
		total += cs.Count
	}
	if total > maxClusterNICs {
		return cluster.Scenario{}, badRequestf("classes declare %d NICs, above the limit %d", total, maxClusterNICs)
	}
	if r.Workload != "" && !slices.Contains(cluster.Workloads(), r.Workload) {
		return cluster.Scenario{}, badRequestf("unknown workload %q (have %v)", r.Workload, cluster.Workloads())
	}
	if r.Arrivals < 0 || r.Arrivals > maxClusterArrivals {
		return cluster.Scenario{}, badRequestf("arrivals %d out of range [0, %d]", r.Arrivals, maxClusterArrivals)
	}
	if r.Profiles < 0 || r.Profiles > maxClusterProfiles {
		return cluster.Scenario{}, badRequestf("profiles %d out of range [0, %d]", r.Profiles, maxClusterProfiles)
	}
	for i, name := range r.NFs {
		if err := validNF(name); err != nil {
			return cluster.Scenario{}, fmt.Errorf("nfs[%d]: %w", i, err)
		}
	}
	for i, p := range r.Policies {
		if !slices.Contains(cluster.Policies(), p) {
			return cluster.Scenario{}, badRequestf("policies[%d]: unknown policy %q (have %v)", i, p, cluster.Policies())
		}
	}
	if r.SLALo < 0 || r.SLALo > 1 || r.SLAHi < 0 || r.SLAHi > 1 {
		return cluster.Scenario{}, badRequestf("SLA range [%g, %g] invalid", r.SLALo, r.SLAHi)
	}
	if r.MeanIAT < 0 || r.MeanLifetime < 0 {
		return cluster.Scenario{}, badRequestf("mean_iat %g / mean_lifetime %g must not be negative", r.MeanIAT, r.MeanLifetime)
	}
	sc := cluster.Scenario{
		NICs:         r.NICs,
		Classes:      r.Classes,
		Workload:     r.Workload,
		Arrivals:     r.Arrivals,
		Seed:         r.Seed,
		NFs:          r.NFs,
		Profiles:     r.Profiles,
		MeanIAT:      r.MeanIAT,
		MeanLifetime: r.MeanLifetime,
		SLALo:        r.SLALo,
		SLAHi:        r.SLAHi,
		ShiftAt:      r.ShiftAt,
		ShiftScale:   r.ShiftScale,
		Online:       r.Online,
	}
	if r.DriftProb != nil {
		if *r.DriftProb < 0 || *r.DriftProb > 1 {
			return cluster.Scenario{}, badRequestf("drift_prob %g out of range [0, 1]", *r.DriftProb)
		}
		sc.DriftProb = *r.DriftProb
	} else {
		sc.DriftProb = cluster.DefaultDriftProb
	}
	// Validate what will actually run, not the raw request: defaults can
	// produce an invalid combination (e.g. sla_lo above the defaulted
	// sla_hi), and that is still the client's doing — a 400, not a 422.
	sc = sc.WithDefaults()
	if err := sc.Validate(); err != nil {
		return cluster.Scenario{}, badRequestf("%v", err)
	}
	return sc, nil
}

// ClusterRun executes a fleet-orchestration comparison with the
// service's model registry as the shared model source: every model loads
// (or quick-trains) once and is reused across policies and across runs.
// The run executes on the caller's goroutine — it is a batch job, not a
// prediction unit, so it takes no compute slot. Instead it holds the
// service's single cluster slot (a second run waits its turn or gives up
// with the caller's context), and the run itself stops at the next event
// once the caller goes away.
func (s *Service) ClusterRun(ctx context.Context, req ClusterRunRequest) (cluster.Comparison, error) {
	s.clusterRuns.Add(1)
	sc, err := req.scenario()
	if err != nil {
		s.errors.Add(1)
		return cluster.Comparison{}, err
	}
	return withSlot(ctx, s, &s.clusterSlot, func() (cluster.Comparison, error) {
		env := cluster.NewEnv(defaultNIC, sc.Seed, s.reg)
		// Scheduler telemetry (decision latency, slots scanned) lands in
		// the server's /metrics; the whole run is the request's predict
		// stage.
		env.SetObs(s.obs)
		sp := obs.StartSpan(ctx, "predict")
		defer sp.End()
		return cluster.Run(ctx, env, sc, req.Policies)
	})
}
