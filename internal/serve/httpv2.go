package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/feedback"
	"repro/internal/obs"
	"repro/internal/wire"
)

// decodeV2 reads a /v2 request body strictly. An empty body decodes to
// the zero request — custom verbs like :diagnose and :reload are usable
// without one.
func decodeV2[Req any](w http.ResponseWriter, r *http.Request, req *Req) bool {
	sp := obs.StartSpan(r.Context(), "decode")
	defer sp.End()
	body, ok := api.ReadBody(w, r)
	if !ok {
		return false
	}
	if len(bytes.TrimSpace(body)) == 0 {
		return true
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		api.WriteError(w, r, http.StatusBadRequest, api.CodeInvalidArgument, api.DecodeErrorMessage(body, req, err))
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
		api.WriteError(w, r, status, code, err.Error())
		return
	}
	esp := obs.StartSpan(r.Context(), "encode")
	api.WriteJSON(w, http.StatusOK, resp)
	esp.End()
}

// v2Route registers a /v2 endpoint plus a methodless fallback that
// answers wrong-method requests with the structured 405 envelope.
func v2Route(mux *http.ServeMux, method, pattern string, h http.HandlerFunc) {
	mux.HandleFunc(method+" "+pattern, h)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", method)
		api.WriteError(w, r, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
			fmt.Sprintf("method %s not allowed (use %s)", r.Method, method))
	})
}

// statsV2 is the GET /v2/stats body: the service counters plus the
// registered backend list. UptimeSeconds repeats uptime_sec under the
// documented /v2 name; StartTime (Unix seconds) is the monotonic anchor
// a gateway aggregates by (min across replicas — uptimes must never be
// summed).
type statsV2 struct {
	ServiceStats
	Backends      []string `json:"backends"`
	UptimeSeconds float64  `json:"uptime_seconds"`
	StartTime     int64    `json:"start_time"`
	// WireAddr advertises the yalawire listener (host:port) when one is
	// mounted — the discovery hook gateways use to upgrade their
	// upstream transport.
	WireAddr string `json:"wire_addr,omitempty"`
	// Drift is the online-feedback controller's counter snapshot (ingest
	// windows, gate decisions, shadow scoring, promotions).
	Drift feedback.Stats `json:"drift"`
}

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
		api.WriteJSON(w, http.StatusOK, ClusterPoliciesResponse{Policies: cluster.Policies()})
	})
	v2Route(mux, "GET", "/v2/stats", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, statsV2{
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
			api.WriteError(w, r, http.StatusBadRequest, api.CodeInvalidArgument,
				fmt.Sprintf("page_size %q: want a positive integer", v))
			return
		}
		size = min(n, maxPageSize)
	}
	off := 0
	if tok := q.Get("page_token"); tok != "" {
		var err error
		if off, err = decodePageToken(tok); err != nil {
			api.WriteError(w, r, http.StatusBadRequest, api.CodeInvalidArgument, err.Error())
			return
		}
	}
	all := s.reg.Models()
	page := wire.ModelsPage{Models: []ModelInfo{}, TotalSize: len(all)}
	if off < len(all) {
		end := min(off+size, len(all))
		for _, info := range all[off:end] {
			info.ID = resourceID(info)
			page.Models = append(page.Models, info)
		}
		if end < len(all) {
			page.NextPageToken = encodePageToken(end)
		}
	}
	api.WriteJSON(w, http.StatusOK, page)
}

// routeOf parses the path segments the mux matched as a model-method
// route, answering the client itself when they are none: 404 for the
// wrong shape (want names the right one), 400 for a malformed model ID.
func routeOf(w http.ResponseWriter, r *http.Request, want string, segs ...string) (api.Route, bool) {
	rt, err := api.ParseRouteSegments(segs...)
	switch {
	case errors.Is(err, api.ErrNoRoute):
		api.WriteError(w, r, http.StatusNotFound, api.CodeNotFound,
			fmt.Sprintf("no such endpoint %s %s (want %s)", r.Method, r.URL.Path, want))
	case err != nil:
		api.WriteError(w, r, http.StatusBadRequest, api.CodeInvalidArgument, err.Error())
	}
	return rt, err == nil
}

// handleModelVerbV2 dispatches the model-scoped custom methods:
// /v2/models/{nf[@hw]}:compare and :diagnose.
func (s *Service) handleModelVerbV2(w http.ResponseWriter, r *http.Request) {
	rt, ok := routeOf(w, r, "/v2/models/{model}:{verb}", r.PathValue("modelverb"))
	if !ok {
		return
	}
	switch rt.Verb {
	case "compare":
		handleV2(w, r, func(p wire.CompareParams) (CompareResponse, error) {
			return s.CompareOn(r.Context(), rt.HW, CompareRequest{
				NF: rt.NF, Profile: p.Profile, Competitors: p.Competitors, GroundTruth: p.GroundTruth,
			})
		})
	case "diagnose":
		handleV2(w, r, func(p wire.PredictParams) (DiagnoseResponse, error) {
			return s.DiagnoseOn(r.Context(), rt.HW, DiagnoseRequest{
				NF: rt.NF, Profile: p.Profile, Competitors: p.Competitors,
			})
		})
	default:
		api.WriteError(w, r, http.StatusNotFound, api.CodeNotFound,
			fmt.Sprintf("unknown verb %q on %s (have compare, diagnose)", rt.Verb, api.ModelID(rt.NF, rt.HW)))
	}
}

// handleBackendVerbV2 dispatches the backend-scoped custom methods:
// /v2/models/{nf[@hw]}/{backend}:predict, :admit and :reload.
func (s *Service) handleBackendVerbV2(w http.ResponseWriter, r *http.Request) {
	rt, ok := routeOf(w, r, "/v2/models/{model}/{backend}:{verb}", r.PathValue("model"), r.PathValue("backendverb"))
	if !ok {
		return
	}
	switch rt.Verb {
	case "predict":
		handleV2(w, r, func(p wire.PredictParams) (PredictResponse, error) {
			return s.PredictOn(r.Context(), rt.HW, PredictRequest{
				NF: rt.NF, Profile: p.Profile, Competitors: p.Competitors, Backend: rt.Backend,
			})
		})
	case "admit":
		handleV2(w, r, func(p wire.AdmitParams) (AdmitResponse, error) {
			return s.AdmitOn(r.Context(), rt.HW, AdmitRequest{
				Residents: p.Residents,
				Candidate: ColoNF{Name: rt.NF, Profile: p.Profile, SLA: p.SLA},
				Backend:   rt.Backend,
			})
		})
	case "reload":
		handleV2(w, r, func(struct{}) (map[string]bool, error) {
			parsed, err := ParseBackend(rt.Backend)
			if err != nil {
				return nil, badRequestf("%v", err)
			}
			if err := validNF(rt.NF); err != nil {
				return nil, err
			}
			s.Reload(parsed, rt.NF)
			return map[string]bool{"ok": true}, nil
		})
	default:
		api.WriteError(w, r, http.StatusNotFound, api.CodeNotFound,
			fmt.Sprintf("unknown verb %q on %s/%s (have predict, admit, reload)", rt.Verb, rt.NF, rt.Backend))
	}
}

// handleIngestV2 serves POST /v2/ingest — ground-truth measurements
// flowing into the online-feedback loop.
func (s *Service) handleIngestV2(w http.ResponseWriter, r *http.Request) {
	var params wire.IngestParams
	if !decodeV2(w, r, &params) {
		return
	}
	items := make([]IngestMeasurement, len(params.Measurements))
	for i, it := range params.Measurements {
		nf, hw, err := api.ParseModelID(it.Model.String())
		if err != nil {
			api.WriteError(w, r, http.StatusBadRequest, api.CodeInvalidArgument,
				fmt.Sprintf("measurements[%d]: %v", i, err))
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
	var params wire.BatchParams
	if !decodeV2(w, r, &params) {
		return
	}
	items := make([]PredictRequest, len(params.Requests))
	for i, it := range params.Requests {
		nf, hw, err := api.ParseModelID(it.Model.String())
		if err != nil {
			api.WriteError(w, r, http.StatusBadRequest, api.CodeInvalidArgument,
				fmt.Sprintf("requests[%d]: %v", i, err))
			return
		}
		items[i] = PredictRequest{NF: nf, HW: hw, Backend: it.Backend, Profile: it.Profile, Competitors: it.Competitors}
	}
	resp, err := s.predictBatch(r.Context(), items)
	respondV2(w, r, resp, err)
}
