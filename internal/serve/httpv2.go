package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/feedback"
	"repro/internal/obs"
)

// The /v2 API is resource-oriented: models are resources named
// "<nf>[@<hw>]" (hw = a fleet hardware class; absent = the server's
// default NIC), predictions are custom methods on a model's backend, and
// cluster runs are a collection:
//
//	GET  /v2/models?page_size=&page_token=       → paginated model list
//	POST /v2/models:batchPredict                 → batch predict across models
//	POST /v2/models/{model}/{backend}:predict    → PredictResponse
//	POST /v2/models/{model}/{backend}:admit      → AdmitResponse
//	POST /v2/models/{model}/{backend}:reload     → {"ok": true}
//	POST /v2/models/{model}:compare              → CompareResponse
//	POST /v2/models/{model}:diagnose             → DiagnoseResponse
//	POST /v2/ingest                              → IngestResult (online feedback)
//	POST /v2/cluster/runs                        → cluster.Comparison
//	GET  /v2/cluster/policies                    → ClusterPoliciesResponse
//	GET  /v2/stats                               → ServiceStats
//
// Every /v2 error is the structured envelope {"error": {code, message,
// details?, request_id}} with a machine-readable code; the request ID is
// echoed in the X-Request-Id header on every response.

// errorInfoV2 is the structured /v2 error payload.
type errorInfoV2 struct {
	Code      string            `json:"code"`
	Message   string            `json:"message"`
	Details   map[string]string `json:"details,omitempty"`
	RequestID string            `json:"request_id,omitempty"`
}

// errorBodyV2 is the /v2 error envelope.
type errorBodyV2 struct {
	Error errorInfoV2 `json:"error"`
}

func writeErrorV2(w http.ResponseWriter, r *http.Request, status int, code, message string, details map[string]string) {
	writeJSON(w, status, errorBodyV2{Error: errorInfoV2{
		Code:      code,
		Message:   message,
		Details:   details,
		RequestID: requestID(r.Context()),
	}})
}

// decodeV2 reads a /v2 request body strictly. An empty body decodes to
// the zero request — custom verbs like :diagnose and :reload are usable
// without one.
func decodeV2[Req any](w http.ResponseWriter, r *http.Request, req *Req) bool {
	sp := obs.StartSpan(r.Context(), "decode")
	defer sp.End()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 10<<20))
	if err != nil {
		writeErrorV2(w, r, http.StatusBadRequest, codeInvalidArgument, "reading request body: "+err.Error(), nil)
		return false
	}
	if len(bytes.TrimSpace(body)) == 0 {
		return true
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		writeErrorV2(w, r, http.StatusBadRequest, codeInvalidArgument, "decoding request body: "+err.Error(), nil)
		return false
	}
	return true
}

// handleV2 decodes, runs and encodes one /v2 call.
func handleV2[Req, Resp any](w http.ResponseWriter, r *http.Request, fn func(Req) (Resp, error)) {
	var req Req
	if !decodeV2(w, r, &req) {
		return
	}
	resp, err := fn(req)
	respondV2(w, r, resp, err)
}

// respondV2 answers with a service call's outcome: the error envelope
// (status and code from errorStatus), or the encoded response.
func respondV2(w http.ResponseWriter, r *http.Request, resp any, err error) {
	if err != nil {
		status, code := errorStatus(r.Context(), err)
		writeErrorV2(w, r, status, code, err.Error(), nil)
		return
	}
	esp := obs.StartSpan(r.Context(), "encode")
	writeJSON(w, http.StatusOK, resp)
	esp.End()
}

// parseModelID splits a /v2 model resource name "<nf>[@<hw>]".
func parseModelID(id string) (nf, hw string, err error) {
	var qualified bool
	nf, hw, qualified = strings.Cut(id, "@")
	if nf == "" {
		return "", "", fmt.Errorf("model id %q: want <nf> or <nf>@<hw>", id)
	}
	if strings.Contains(hw, "@") {
		return "", "", fmt.Errorf("model id %q: more than one @", id)
	}
	// A trailing "@" is a malformed qualifier, not a quiet request for
	// the default hardware.
	if qualified && hw == "" {
		return "", "", fmt.Errorf("model id %q: empty hardware qualifier", id)
	}
	return nf, hw, nil
}

// splitVerb cuts one "name:verb" path segment.
func splitVerb(seg string) (name, verb string, ok bool) {
	name, verb, ok = strings.Cut(seg, ":")
	return name, verb, ok && name != "" && verb != ""
}

// v2Route registers a /v2 endpoint plus a methodless fallback that
// answers wrong-method requests with the structured 405 envelope.
func v2Route(mux *http.ServeMux, method, pattern string, h http.HandlerFunc) {
	mux.HandleFunc(method+" "+pattern, h)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", method)
		writeErrorV2(w, r, http.StatusMethodNotAllowed, codeMethodNotAllowed,
			fmt.Sprintf("method %s not allowed (use %s)", r.Method, method), nil)
	})
}

// Wire shapes of the /v2 custom methods. The model and backend live in
// the path, so the bodies carry only the scenario.
type (
	// predictParamsV2 is the body of :predict and :diagnose.
	predictParamsV2 struct {
		Profile     ProfileSpec      `json:"profile,omitzero"`
		Competitors []CompetitorSpec `json:"competitors,omitempty"`
	}
	// compareParamsV2 is the body of :compare.
	compareParamsV2 struct {
		Profile     ProfileSpec      `json:"profile,omitzero"`
		Competitors []CompetitorSpec `json:"competitors,omitempty"`
		GroundTruth bool             `json:"ground_truth,omitempty"`
	}
	// admitParamsV2 is the body of :admit; the candidate NF is the path
	// model, so only its profile and SLA appear here.
	admitParamsV2 struct {
		Residents []ColoNF    `json:"residents,omitempty"`
		Profile   ProfileSpec `json:"profile,omitzero"`
		SLA       float64     `json:"sla"`
	}
	// batchItemV2 is one element of :batchPredict — a fully qualified
	// (model, backend, scenario) tuple, so one batch can span NFs,
	// hardware classes and backends.
	batchItemV2 struct {
		Model       string           `json:"model"`
		Backend     string           `json:"backend,omitempty"`
		Profile     ProfileSpec      `json:"profile,omitzero"`
		Competitors []CompetitorSpec `json:"competitors,omitempty"`
	}
	batchParamsV2 struct {
		Requests []batchItemV2 `json:"requests"`
	}
	// ingestItemV2 is one ground-truth measurement of POST /v2/ingest —
	// the scenario it was taken under plus the observed throughput.
	ingestItemV2 struct {
		Model       string           `json:"model"`
		Backend     string           `json:"backend,omitempty"`
		Profile     ProfileSpec      `json:"profile,omitzero"`
		Competitors []CompetitorSpec `json:"competitors,omitempty"`
		MeasuredPPS float64          `json:"measured_pps"`
		Source      string           `json:"source,omitempty"`
	}
	ingestParamsV2 struct {
		Measurements []ingestItemV2 `json:"measurements"`
	}
	// modelInfoV2 is one listing entry with its resource ID.
	modelInfoV2 struct {
		ID string `json:"id"`
		ModelInfo
	}
	// statsV2 is the GET /v2/stats body: the service counters plus the
	// registered backend list. UptimeSeconds repeats uptime_sec under
	// the documented /v2 name; StartTime (Unix seconds) is the monotonic
	// anchor a gateway aggregates by (min across replicas — uptimes must
	// never be summed).
	statsV2 struct {
		ServiceStats
		Backends      []string `json:"backends"`
		UptimeSeconds float64  `json:"uptime_seconds"`
		StartTime     int64    `json:"start_time"`
		// WireAddr advertises the yalawire listener (host:port) when one
		// is mounted — the discovery hook gateways use to upgrade their
		// upstream transport.
		WireAddr string `json:"wire_addr,omitempty"`
		// Drift is the online-feedback controller's counter snapshot
		// (ingest windows, gate decisions, shadow scoring, promotions).
		Drift feedback.Stats `json:"drift"`
	}
	// modelsPageV2 is one page of the model listing.
	modelsPageV2 struct {
		Models        []modelInfoV2 `json:"models"`
		NextPageToken string        `json:"next_page_token,omitempty"`
		TotalSize     int           `json:"total_size"`
	}
)

// Model-listing pagination bounds.
const (
	defaultPageSize = 50
	maxPageSize     = 500
)

// encodePageToken renders an opaque continuation token for offset off.
func encodePageToken(off int) string {
	return base64.RawURLEncoding.EncodeToString([]byte("off=" + strconv.Itoa(off)))
}

// decodePageToken validates and decodes a continuation token.
func decodePageToken(tok string) (int, error) {
	raw, err := base64.RawURLEncoding.DecodeString(tok)
	if err != nil {
		return 0, fmt.Errorf("malformed page_token")
	}
	v, ok := strings.CutPrefix(string(raw), "off=")
	if !ok {
		return 0, fmt.Errorf("malformed page_token")
	}
	off, err := strconv.Atoi(v)
	if err != nil || off < 0 {
		return 0, fmt.Errorf("malformed page_token")
	}
	return off, nil
}

func (s *Service) registerV2(mux *http.ServeMux) {
	v2Route(mux, "GET", "/v2/models", s.handleListModels)
	v2Route(mux, "POST", "/v2/models:batchPredict", s.handleBatchPredictV2)
	v2Route(mux, "POST", "/v2/ingest", s.handleIngestV2)
	v2Route(mux, "POST", "/v2/models/{modelverb}", s.handleModelVerbV2)
	v2Route(mux, "POST", "/v2/models/{model}/{backendverb}", s.handleBackendVerbV2)
	v2Route(mux, "POST", "/v2/cluster/runs", func(w http.ResponseWriter, r *http.Request) {
		handleV2(w, r, func(req ClusterRunRequest) (cluster.Comparison, error) {
			return s.ClusterRun(r.Context(), req)
		})
	})
	v2Route(mux, "GET", "/v2/cluster/policies", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, ClusterPoliciesResponse{Policies: cluster.Policies()})
	})
	v2Route(mux, "GET", "/v2/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, statsV2{
			ServiceStats:  s.Stats(),
			Backends:      backend.Names(),
			UptimeSeconds: time.Since(s.started).Seconds(),
			StartTime:     s.started.Unix(),
			WireAddr:      s.WireAddr(),
			Drift:         s.fb.Stats(),
		})
	})
}

// handleListModels serves GET /v2/models with offset-token pagination
// over the registry's deterministic (NF, hw, backend) ordering.
func (s *Service) handleListModels(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	size := defaultPageSize
	if v := q.Get("page_size"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeErrorV2(w, r, http.StatusBadRequest, codeInvalidArgument,
				fmt.Sprintf("page_size %q: want a positive integer", v), nil)
			return
		}
		size = min(n, maxPageSize)
	}
	off := 0
	if tok := q.Get("page_token"); tok != "" {
		var err error
		if off, err = decodePageToken(tok); err != nil {
			writeErrorV2(w, r, http.StatusBadRequest, codeInvalidArgument, err.Error(), nil)
			return
		}
	}
	all := s.reg.Models()
	page := modelsPageV2{Models: []modelInfoV2{}, TotalSize: len(all)}
	if off < len(all) {
		end := min(off+size, len(all))
		for _, info := range all[off:end] {
			page.Models = append(page.Models, modelInfoV2{ID: info.ResourceID(), ModelInfo: info})
		}
		if end < len(all) {
			page.NextPageToken = encodePageToken(end)
		}
	}
	writeJSON(w, http.StatusOK, page)
}

// handleModelVerbV2 dispatches the model-scoped custom methods:
// /v2/models/{nf[@hw]}:compare and :diagnose.
func (s *Service) handleModelVerbV2(w http.ResponseWriter, r *http.Request) {
	id, verb, ok := splitVerb(r.PathValue("modelverb"))
	if !ok {
		writeErrorV2(w, r, http.StatusNotFound, codeNotFound,
			fmt.Sprintf("no such endpoint %s %s (want /v2/models/{model}:{verb})", r.Method, r.URL.Path), nil)
		return
	}
	nf, hw, err := parseModelID(id)
	if err != nil {
		writeErrorV2(w, r, http.StatusBadRequest, codeInvalidArgument, err.Error(), nil)
		return
	}
	switch verb {
	case "compare":
		handleV2(w, r, func(p compareParamsV2) (CompareResponse, error) {
			return s.CompareOn(r.Context(), hw, CompareRequest{
				NF: nf, Profile: p.Profile, Competitors: p.Competitors, GroundTruth: p.GroundTruth,
			})
		})
	case "diagnose":
		handleV2(w, r, func(p predictParamsV2) (DiagnoseResponse, error) {
			return s.DiagnoseOn(r.Context(), hw, DiagnoseRequest{
				NF: nf, Profile: p.Profile, Competitors: p.Competitors,
			})
		})
	default:
		writeErrorV2(w, r, http.StatusNotFound, codeNotFound,
			fmt.Sprintf("unknown verb %q on %s (have compare, diagnose)", verb, id), nil)
	}
}

// handleBackendVerbV2 dispatches the backend-scoped custom methods:
// /v2/models/{nf[@hw]}/{backend}:predict, :admit and :reload.
func (s *Service) handleBackendVerbV2(w http.ResponseWriter, r *http.Request) {
	nf, hw, err := parseModelID(r.PathValue("model"))
	if err != nil {
		writeErrorV2(w, r, http.StatusBadRequest, codeInvalidArgument, err.Error(), nil)
		return
	}
	backendName, verb, ok := splitVerb(r.PathValue("backendverb"))
	if !ok {
		writeErrorV2(w, r, http.StatusNotFound, codeNotFound,
			fmt.Sprintf("no such endpoint %s %s (want /v2/models/{model}/{backend}:{verb})", r.Method, r.URL.Path), nil)
		return
	}
	switch verb {
	case "predict":
		handleV2(w, r, func(p predictParamsV2) (PredictResponse, error) {
			return s.PredictOn(r.Context(), hw, PredictRequest{
				NF: nf, Profile: p.Profile, Competitors: p.Competitors, Backend: backendName,
			})
		})
	case "admit":
		handleV2(w, r, func(p admitParamsV2) (AdmitResponse, error) {
			return s.AdmitOn(r.Context(), hw, AdmitRequest{
				Residents: p.Residents,
				Candidate: ColoNF{Name: nf, Profile: p.Profile, SLA: p.SLA},
				Backend:   backendName,
			})
		})
	case "reload":
		handleV2(w, r, func(struct{}) (map[string]bool, error) {
			parsed, err := ParseBackend(backendName)
			if err != nil {
				return nil, badRequestf("%v", err)
			}
			if err := validNF(nf); err != nil {
				return nil, err
			}
			s.Reload(parsed, nf)
			return map[string]bool{"ok": true}, nil
		})
	default:
		writeErrorV2(w, r, http.StatusNotFound, codeNotFound,
			fmt.Sprintf("unknown verb %q on %s/%s (have predict, admit, reload)", verb, nf, backendName), nil)
	}
}

// handleIngestV2 serves POST /v2/ingest — ground-truth measurements
// flowing into the online-feedback loop.
func (s *Service) handleIngestV2(w http.ResponseWriter, r *http.Request) {
	var params ingestParamsV2
	if !decodeV2(w, r, &params) {
		return
	}
	items := make([]IngestMeasurement, len(params.Measurements))
	for i, it := range params.Measurements {
		nf, hw, err := parseModelID(it.Model)
		if err != nil {
			writeErrorV2(w, r, http.StatusBadRequest, codeInvalidArgument,
				fmt.Sprintf("measurements[%d]: %v", i, err), nil)
			return
		}
		items[i] = IngestMeasurement{
			NF: nf, HW: hw, Backend: it.Backend,
			Profile: it.Profile, Competitors: it.Competitors,
			MeasuredPPS: it.MeasuredPPS, Source: it.Source,
		}
	}
	resp, err := s.Ingest(r.Context(), items)
	respondV2(w, r, resp, err)
}

// handleBatchPredictV2 serves POST /v2/models:batchPredict — the /v2
// form of the batch endpoint, with a fully qualified model per element.
func (s *Service) handleBatchPredictV2(w http.ResponseWriter, r *http.Request) {
	var params batchParamsV2
	if !decodeV2(w, r, &params) {
		return
	}
	items := make([]hwPredict, len(params.Requests))
	for i, it := range params.Requests {
		nf, hw, err := parseModelID(it.Model)
		if err != nil {
			writeErrorV2(w, r, http.StatusBadRequest, codeInvalidArgument,
				fmt.Sprintf("requests[%d]: %v", i, err), nil)
			return
		}
		items[i] = hwPredict{hw: hw, req: PredictRequest{
			NF: nf, Profile: it.Profile, Competitors: it.Competitors, Backend: it.Backend,
		}}
	}
	resp, err := s.predictBatch(r.Context(), items)
	respondV2(w, r, resp, err)
}
