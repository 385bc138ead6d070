package wire

import "strings"

// This file declares the /v2 payloads of the model methods (predict,
// batch, compare, admit, diagnose, ingest, the listing): each has its
// one Go definition here. The server (internal/serve) and the SDK
// (pkg/yalaclient) name them through type aliases, and the frame codec
// in codec.go encodes the ones the typed frames carry, so a field added
// here reaches every side at once. The model and backend of a custom
// method live in its path, so the *Params bodies carry only the
// scenario.

// Profile is a traffic profile. Absent attributes (zero Flows or
// PktSize, nil MTBR) fall back to the server's default profile; MTBR is
// a pointer because 0 matches/MB (a match-free workload) must stay
// distinguishable from "not specified".
type Profile struct {
	Flows   int      `json:"flows,omitempty"`
	PktSize int      `json:"pktsize,omitempty"`
	MTBR    *float64 `json:"mtbr,omitempty"`
}

// F64 builds the pointer form MTBR takes in a Profile literal.
func F64(v float64) *float64 { return &v }

// Competitor names one co-located NF and its traffic profile.
type Competitor struct {
	Name    string  `json:"name"`
	Profile Profile `json:"profile,omitzero"`
}

// ModelID names one model resource: an NF, optionally qualified by a
// fleet hardware class. The zero HW selects the server's default NIC.
// In JSON it is the resource name String renders.
type ModelID struct {
	NF string
	HW string
}

// String renders the /v2 resource name: "nf" or "nf@hw".
func (m ModelID) String() string {
	if m.HW == "" {
		return m.NF
	}
	return m.NF + "@" + m.HW
}

// MarshalText renders the resource name.
func (m ModelID) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText splits a resource name at its first "@" without judging
// it: a name with no qualifier after its "@" stays whole in NF, so
// String gives back exactly the text read, and the server's model-ID
// grammar (api.ParseModelID over String) reports what is wrong with it.
func (m *ModelID) UnmarshalText(b []byte) error {
	s := string(b)
	nf, hw, _ := strings.Cut(s, "@")
	if hw == "" {
		nf = s
	}
	*m = ModelID{NF: nf, HW: hw}
	return nil
}

// PredictParams is the body of :predict and :diagnose.
type PredictParams struct {
	Profile     Profile      `json:"profile,omitzero"`
	Competitors []Competitor `json:"competitors,omitempty"`
}

// CompareParams is the body of :compare. GroundTruth additionally
// co-runs the scenario on the server's simulator and reports each
// predictor's error against the measurement.
type CompareParams struct {
	Profile     Profile      `json:"profile,omitzero"`
	Competitors []Competitor `json:"competitors,omitempty"`
	GroundTruth bool         `json:"ground_truth,omitempty"`
}

// ColoNF is one NF in an admission scenario: its traffic profile and
// SLA, the largest throughput drop relative to solo it tolerates (e.g.
// 0.1).
type ColoNF struct {
	Name    string  `json:"name"`
	Profile Profile `json:"profile,omitzero"`
	SLA     float64 `json:"sla"`
}

// AdmitParams is the body of :admit: whether the path model, at Profile
// and SLA, can join Residents without breaking any SLA.
type AdmitParams struct {
	Residents []ColoNF `json:"residents,omitempty"`
	Profile   Profile  `json:"profile,omitzero"`
	SLA       float64  `json:"sla"`
}

// PredictRequest is one fully named prediction scenario: what a
// TypePredict frame carries, one element of a TypeBatch frame, and the
// service's request type. HW is the hardware class, "" for the server's
// default NIC; JSON callers name it in the model ID instead.
type PredictRequest struct {
	NF          string       `json:"nf"`
	HW          string       `json:"-"`
	Backend     string       `json:"backend,omitempty"`
	Profile     Profile      `json:"profile,omitzero"`
	Competitors []Competitor `json:"competitors,omitempty"`
}

// BatchItem is one element of :batchPredict: a fully qualified (model,
// backend, scenario) tuple, so one batch can span NFs, hardware classes
// and backends.
type BatchItem struct {
	Model       ModelID      `json:"model"`
	Backend     string       `json:"backend,omitempty"`
	Profile     Profile      `json:"profile,omitzero"`
	Competitors []Competitor `json:"competitors,omitempty"`
}

// BatchParams is the body of POST /v2/models:batchPredict.
type BatchParams struct {
	Requests []BatchItem `json:"requests"`
}

// Measurement is one ground-truth throughput report of POST /v2/ingest:
// the model it concerns, the scenario it was measured under and the
// observed co-located throughput. Source optionally names its origin (a
// rig, an agent), so the server's drift gate can quarantine origins
// whose reports disagree with the consensus.
type Measurement struct {
	Model       ModelID      `json:"model"`
	Backend     string       `json:"backend,omitempty"`
	Profile     Profile      `json:"profile,omitzero"`
	Competitors []Competitor `json:"competitors,omitempty"`
	MeasuredPPS float64      `json:"measured_pps"`
	Source      string       `json:"source,omitempty"`
}

// IngestParams is the body of POST /v2/ingest.
type IngestParams struct {
	Measurements []Measurement `json:"measurements"`
}

// ResourcePPS is one per-resource throughput attribution row; the
// slice form keeps encoding deterministic where the JSON shape uses a
// map.
type ResourcePPS struct {
	Resource string
	PPS      float64
}

// PredictResponse is the answer to one scenario. HW is set only for
// hardware-qualified requests. PerResourcePPS and Bottleneck carry the
// per-resource breakdown of backends that attribute (yala);
// extrapolating backends omit them. PerResource is the same breakdown
// sorted by resource, the form a frame carries: the server sorts it once
// when it computes an answer, so every hit encodes the same bytes, and a
// frame decodes into it. The SDK answers on either transport with it
// nil and the map set.
type PredictResponse struct {
	NF             string             `json:"nf"`
	HW             string             `json:"hw,omitempty"`
	Backend        string             `json:"backend"`
	Profile        Profile            `json:"profile"`
	SoloPPS        float64            `json:"solo_pps"`
	PredictedPPS   float64            `json:"predicted_pps"`
	PerResourcePPS map[string]float64 `json:"per_resource_pps,omitempty"`
	Bottleneck     string             `json:"bottleneck,omitempty"`
	PerResource    []ResourcePPS      `json:"-"`
}

// BatchResponse returns one response per request, in order. An element
// that failed has a zero response and its message at the same index in
// Errors; the batch itself still succeeds. Errors is absent when every
// element succeeded, in JSON and in a frame alike.
type BatchResponse struct {
	Responses []PredictResponse `json:"responses"`
	Errors    []string          `json:"errors,omitempty"`
}

// CompareResponse is the Yala-vs-SLOMO head-to-head for one scenario.
type CompareResponse struct {
	NF          string          `json:"nf"`
	HW          string          `json:"hw,omitempty"`
	Profile     Profile         `json:"profile"`
	Yala        PredictResponse `json:"yala"`
	SLOMO       PredictResponse `json:"slomo"`
	MeasuredPPS float64         `json:"measured_pps,omitempty"`
	YalaErrPct  float64         `json:"yala_err_pct,omitempty"`
	SLOMOErrPct float64         `json:"slomo_err_pct,omitempty"`
}

// AdmitResponse is the admission decision. Reason distinguishes a
// core-capacity rejection ("cores") from a predicted SLA violation
// ("sla").
type AdmitResponse struct {
	Admit     bool   `json:"admit"`
	Backend   string `json:"backend"`
	Residents int    `json:"residents"`
	Reason    string `json:"reason,omitempty"`
}

// DiagnoseResponse is Yala's per-resource bottleneck attribution.
type DiagnoseResponse struct {
	NF             string             `json:"nf"`
	HW             string             `json:"hw,omitempty"`
	Profile        Profile            `json:"profile"`
	Bottleneck     string             `json:"bottleneck"`
	SoloPPS        float64            `json:"solo_pps"`
	PredictedPPS   float64            `json:"predicted_pps"`
	DropPct        float64            `json:"drop_pct"`
	PerResourcePPS map[string]float64 `json:"per_resource_pps"`
}

// ModelInfo describes one model the server knows about. ID, the /v2
// resource name "<nf>[@<hw>]/<backend>", is set in the model listing
// only. HW is empty for models on the default NIC. Generation counts
// fresh in-process resolutions of the model (load, train or promotion)
// and TrainedAt is the Unix time of the latest one; both are 0 for a
// model only seen on disk.
type ModelInfo struct {
	ID         string `json:"id,omitempty"`
	NF         string `json:"nf"`
	HW         string `json:"hw,omitempty"`
	Backend    string `json:"backend"`
	Loaded     bool   `json:"loaded"`
	OnDisk     bool   `json:"on_disk"`
	Generation uint64 `json:"generation,omitempty"`
	TrainedAt  int64  `json:"trained_at,omitempty"`
}

// ModelsPage is one page of GET /v2/models; a non-empty NextPageToken
// continues it.
type ModelsPage struct {
	Models        []ModelInfo `json:"models"`
	NextPageToken string      `json:"next_page_token,omitempty"`
	TotalSize     int         `json:"total_size"`
}

// IngestResult summarizes one ingest batch: measurements accepted into
// the feedback windows, and those recorded under a quarantined source.
type IngestResult struct {
	Accepted    int `json:"accepted"`
	Quarantined int `json:"quarantined"`
}

// CacheStats is the server's response-cache counter snapshot.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}
