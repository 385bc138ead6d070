package yalaclient

import (
	"encoding/json"

	"repro/internal/wire"
)

// The /v2 payloads have their one definition in the wire package, which
// the server and the binary frame codec share; the SDK's names for them
// are aliases, so every field the server sends is here as it is there.
// A PredictResult's PerResource rows (the frame form of PerResourcePPS)
// are nil in every answer the Client returns, whichever transport
// carried it.
type (
	ModelID        = wire.ModelID
	ProfileSpec    = wire.Profile
	Competitor     = wire.Competitor
	PredictParams  = wire.PredictParams
	PredictResult  = wire.PredictResponse
	BatchItem      = wire.BatchItem
	BatchResult    = wire.BatchResponse
	CompareParams  = wire.CompareParams
	CompareResult  = wire.CompareResponse
	Resident       = wire.ColoNF
	AdmitParams    = wire.AdmitParams
	AdmitResult    = wire.AdmitResponse
	DiagnoseResult = wire.DiagnoseResponse
	ModelInfo      = wire.ModelInfo
	ModelsPage     = wire.ModelsPage
	Measurement    = wire.Measurement
	IngestResult   = wire.IngestResult
	CacheStats     = wire.CacheStats
)

// F64 builds the pointer form MTBR takes in a ProfileSpec literal.
var F64 = wire.F64

// DriftStats is the server's online-feedback counter snapshot: the
// drift gate's decision stream and the candidate train/shadow/promote
// lifecycle.
type DriftStats struct {
	Observations   uint64 `json:"observations"`
	Quarantined    uint64 `json:"quarantined"`
	Holds          uint64 `json:"holds"`
	Trips          uint64 `json:"trips"`
	Retrains       uint64 `json:"retrains"`
	TrainFailures  uint64 `json:"train_failures,omitempty"`
	ShadowSamples  uint64 `json:"shadow_samples"`
	ShadowCompares uint64 `json:"shadow_compares"`
	ShadowAborts   uint64 `json:"shadow_aborts,omitempty"`
	Promotions     uint64 `json:"promotions"`
}

// ListModelsParams pages through the model listing.
type ListModelsParams struct {
	PageSize  int
	PageToken string
}

// ClusterRunParams shapes a fleet-orchestration comparison run. Zero
// values take the server's defaults; Policies empty means all
// policies.
type ClusterRunParams struct {
	NICs         int         `json:"nics,omitempty"`
	Classes      []ClassSpec `json:"classes,omitempty"`
	Workload     string      `json:"workload,omitempty"`
	Arrivals     int         `json:"arrivals,omitempty"`
	Seed         uint64      `json:"seed,omitempty"`
	NFs          []string    `json:"nfs,omitempty"`
	Policies     []string    `json:"policies,omitempty"`
	Profiles     int         `json:"profiles,omitempty"`
	MeanIAT      float64     `json:"mean_iat,omitempty"`
	MeanLifetime float64     `json:"mean_lifetime,omitempty"`
	DriftProb    *float64    `json:"drift_prob,omitempty"`
	SLALo        float64     `json:"sla_lo,omitempty"`
	SLAHi        float64     `json:"sla_hi,omitempty"`
	// ShiftAt/ShiftScale apply a mid-run hardware shift; Online closes
	// the server's feedback loop so prediction-guided policies retrain
	// and promote against the shifted measurements mid-run.
	ShiftAt    float64 `json:"shift_at,omitempty"`
	ShiftScale float64 `json:"shift_scale,omitempty"`
	Online     bool    `json:"online,omitempty"`
}

// ClassSpec declares one homogeneous slice of a mixed fleet.
type ClassSpec struct {
	Class string `json:"class"`
	Count int    `json:"count"`
	Cores int    `json:"cores,omitempty"`
}

// ClusterPolicyResult is one policy's outcome in a comparison run.
type ClusterPolicyResult struct {
	Policy         string  `json:"policy"`
	Arrivals       int     `json:"arrivals"`
	Admitted       int     `json:"admitted"`
	Rejected       int     `json:"rejected"`
	Rollbacks      int     `json:"rollbacks"`
	Migrations     int     `json:"migrations"`
	Evictions      int     `json:"evictions"`
	Departures     int     `json:"departures"`
	Violations     int     `json:"violations"`
	PeakTenants    int     `json:"peak_tenants"`
	AvgUtilization float64 `json:"avg_utilization"`
	// Retrains/Promotions count the online feedback loop's actions; zero
	// unless the run set Online and the policy is prediction-guided.
	Retrains      int   `json:"retrains,omitempty"`
	Promotions    int   `json:"promotions,omitempty"`
	DecisionP50NS int64 `json:"decision_p50_ns"`
	DecisionP99NS int64 `json:"decision_p99_ns"`
}

// ClusterComparison is a comparison run's result. Scenario is kept as
// raw JSON so callers that understand the server's full scenario shape
// (the CLI) can decode it losslessly.
type ClusterComparison struct {
	Scenario json.RawMessage       `json:"scenario"`
	Results  []ClusterPolicyResult `json:"results"`
}

// GatewayReplicaStats is one replica's state as seen by a scale-out
// gateway: liveness, how much traffic it served, how many fan-outs
// reached it, and a live snapshot of its response-cache size
// (CacheEntries is -1 when the replica could not be asked).
type GatewayReplicaStats struct {
	URL            string `json:"url"`
	Slot           int    `json:"slot,omitempty"`
	Healthy        bool   `json:"healthy"`
	Requests       uint64 `json:"requests"`
	Errors         uint64 `json:"errors"`
	Fanouts        uint64 `json:"fanouts"`
	CacheEntries   int    `json:"cache_entries"`
	PendingReloads int    `json:"pending_reloads,omitempty"`
}

// GatewayTenantStats is one tenant's accounting row on a gateway with
// the multi-tenant admission gate mounted: admitted traffic by priority
// class, sheds by reason, and server errors attributed to the tenant.
type GatewayTenantStats struct {
	Tenant      string `json:"tenant"`
	Limited     bool   `json:"limited"`
	Requests    uint64 `json:"requests"`
	Interactive uint64 `json:"interactive"`
	Bulk        uint64 `json:"bulk"`
	Shed        uint64 `json:"shed"`
	RateLimited uint64 `json:"rate_limited"`
	Overloaded  uint64 `json:"overloaded"`
	Errors      uint64 `json:"errors"`
}

// GatewayStats is the gateway's operator snapshot: per-replica state
// plus the gateway's own routing and edge-cache counters. Slots is the
// hash-ring size; an elastic gateway may have fewer replicas attached
// than slots. Tenants is present when the admission gate is mounted.
type GatewayStats struct {
	Replicas []GatewayReplicaStats `json:"replicas"`
	Slots    int                   `json:"slots,omitempty"`
	Tenants  []GatewayTenantStats  `json:"tenants,omitempty"`
	Requests uint64                `json:"requests"`
	Retries  uint64                `json:"retries"`
	Fanouts  uint64                `json:"fanouts"`
	// Coalesced counts requests answered by sharing a concurrent
	// identical in-flight upstream call instead of dialing a replica;
	// Canceled counts requests whose client hung up before an upstream
	// answered (499s, excluded from the shed signal).
	Coalesced   uint64 `json:"coalesced,omitempty"`
	Canceled    uint64 `json:"canceled,omitempty"`
	EdgeHits    uint64 `json:"edge_hits"`
	EdgeMisses  uint64 `json:"edge_misses"`
	EdgeEntries int    `json:"edge_entries"`
}

// Stats is the operator-facing server snapshot.
type Stats struct {
	UptimeSec float64 `json:"uptime_sec"`
	// UptimeSeconds and StartTime are the /v2 additions: uptime derived
	// from a monotonic clock, and the Unix start instant. A gateway's
	// aggregated view reports the oldest replica's uptime and the
	// earliest start — uptimes never sum across a fleet.
	UptimeSeconds   float64           `json:"uptime_seconds,omitempty"`
	StartTime       int64             `json:"start_time,omitempty"`
	Workers         int               `json:"workers"`
	Backends        []string          `json:"backends,omitempty"`
	Requests        map[string]uint64 `json:"requests"`
	Errors          uint64            `json:"errors"`
	Cache           CacheStats        `json:"cache"`
	Models          []ModelInfo       `json:"models"`
	PersistFailures uint64            `json:"persist_failures,omitempty"`
	LastPersistErr  string            `json:"last_persist_error,omitempty"`
	// WireAddr is the server's yalawire binary listener (host:port),
	// empty when the server runs without one. Clients and gateways use
	// it to discover the wire transport (WithWire) without extra
	// configuration.
	WireAddr string `json:"wire_addr,omitempty"`
	// Drift is the online-feedback snapshot; a gateway's aggregated
	// view sums it across replicas. Absent on servers predating the
	// feedback loop.
	Drift *DriftStats `json:"drift,omitempty"`
}
