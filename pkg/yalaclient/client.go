package yalaclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// DefaultBackend is the backend used when a call names none.
const DefaultBackend = "yala"

// APIError is a structured error returned by the server's /v2 envelope.
type APIError struct {
	StatusCode int
	Code       string
	Message    string
	RequestID  string
}

func (e *APIError) Error() string {
	msg := e.Message
	if msg == "" {
		msg = http.StatusText(e.StatusCode)
	}
	if e.Code != "" {
		return fmt.Sprintf("yalaclient: %s: %s", e.Code, msg)
	}
	return fmt.Sprintf("yalaclient: HTTP %d: %s", e.StatusCode, msg)
}

// RateLimitError is the typed form of a 429 refusal from a
// multi-tenant server or gateway: the structured envelope plus the
// parsed Retry-After hint. RetryAfter is 0 when the server sent none.
type RateLimitError struct {
	APIError
	RetryAfter time.Duration
}

// Client is a typed client for the yala serve /v2 HTTP API.
type Client struct {
	base    string
	httpc   *http.Client
	apiKey  string
	timeout time.Duration
	retries int
	backoff time.Duration

	// Wire transport state (WithWire): the binary fast path for Predict
	// and PredictBatch, with transparent HTTP fallback. wireRetryAt
	// parks the wire path for a grace period after a transport failure
	// so a dead listener costs one failed dial, not one per request.
	wireAddr    string
	wire        *wire.Pool
	wireRetryAt atomic.Int64
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient replaces the underlying HTTP client entirely (custom
// transport, proxies, instrumentation).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.httpc = h }
}

// WithAPIKey authenticates every request as a tenant: the key is sent
// as an Authorization: Bearer header, which a multi-tenant server or
// gateway resolves to the tenant's rate limits and accounting. Without
// a key, requests run as the server's anonymous tenant (or are refused
// with 401 where a key is required).
func WithAPIKey(key string) Option {
	return func(c *Client) { c.apiKey = strings.TrimSpace(key) }
}

// WithTimeout bounds each request round trip. The default is no
// timeout — prediction misses can legitimately take a while on a cold
// server — so latency-sensitive callers should set one. Order-safe with
// WithHTTPClient: the timeout is applied after all options resolve, to
// a private copy, never to a caller-owned http.Client.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithRetries retries transport failures and 5xx responses up to n
// times with exponential backoff. The default is 0: load generation and
// benchmarking must observe every failure, so retrying is opt-in.
// Retries respect idempotency: every call except Reload repeats freely,
// while Reload — the one mutating custom method — retries only dial
// failures, where the request provably never reached the server.
func WithRetries(n int) Option {
	return func(c *Client) { c.retries = n }
}

// WithRetryBackoff sets the initial retry backoff (default 100ms,
// doubling per attempt). Only meaningful with WithRetries.
func WithRetryBackoff(d time.Duration) Option {
	return func(c *Client) { c.backoff = d }
}

// WithWire routes Predict and PredictBatch over the server's yalawire
// binary listener at addr (host:port — the address `yala serve -wire`
// printed, advertised as wire_addr in /v2/stats). The wire path keeps
// the client's typed errors (*APIError, *RateLimitError) and retry
// rules: a transport failure — dial refused, connection dropped,
// protocol damage — falls back to HTTP transparently for that call,
// and a retryable wire refusal (5xx, 429) with a WithRetries budget
// re-issues over HTTP so the standard backoff/Retry-After schedule
// applies. All other calls use HTTP regardless.
func WithWire(addr string) Option {
	return func(c *Client) { c.wireAddr = strings.TrimSpace(addr) }
}

// New returns a client for a server base URL (e.g.
// "http://localhost:8844"). The default transport keeps enough idle
// connections per host for load-generation fan-out — net/http's default
// of 2 makes every worker beyond the second re-handshake per request.
func New(base string, opts ...Option) *Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 256
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		httpc:   &http.Client{Transport: tr},
		backoff: 100 * time.Millisecond,
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.timeout > 0 {
		// Shallow-copy before setting the timeout so a caller-supplied
		// shared http.Client is never mutated.
		hc := *c.httpc
		hc.Timeout = c.timeout
		c.httpc = &hc
	}
	if c.wireAddr != "" {
		// Built after all options resolve so the pool handshakes with
		// the final API key regardless of option order.
		c.wire = wire.NewPool(c.wireAddr, c.apiKey, wireIdleConns)
	}
	return c
}

// Close releases the wire transport's pooled connections. A client
// built without WithWire holds nothing that needs closing.
func (c *Client) Close() {
	if c.wire != nil {
		c.wire.Close()
	}
}

// do round-trips one idempotent call: marshal, retry loop, envelope
// decoding. Every API call except Reload goes through here — reads and
// deterministic computations answer identically on a duplicate
// delivery, so retrying an ambiguous failure is always safe.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.call(ctx, method, path, in, out, true)
}

// doNonIdempotent is the retry-averse variant for mutating custom
// methods (:reload). An ambiguous failure — a transport error after the
// request may have reached the server, or any HTTP response at all — is
// returned instead of retried: re-sending could apply the mutation
// twice, and behind a scale-out gateway a :reload re-triggers a whole
// fan-out. Only provably-unsent requests (dial failures: the connection
// never opened) retry.
func (c *Client) doNonIdempotent(ctx context.Context, method, path string, in, out any) error {
	return c.call(ctx, method, path, in, out, false)
}

// call is the shared retry loop. Context cancellation is honored both
// between attempts (the backoff select) and across an attempt that
// failed because the context expired mid-flight — a canceled caller
// must never be held hostage by the remaining retry budget.
func (c *Client) call(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("yalaclient: encoding %s request: %w", path, err)
		}
	}
	backoff := c.backoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		data, status, hdr, err := c.roundTrip(ctx, method, path, body)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				// The round trip failed because the caller gave up;
				// surface that, not a transport-flavored wrapper.
				return ctx.Err()
			}
			lastErr = fmt.Errorf("yalaclient: %s %s: %w", method, path, err)
			if !idempotent && !dialError(err) {
				// Ambiguous: the request may have been delivered and
				// acted on before the connection died.
				return lastErr
			}
		case status >= 500:
			lastErr = apiError(status, data)
			if !idempotent {
				// The server (or an intermediary) saw the request; a 5xx
				// does not prove the mutation was not applied.
				return lastErr
			}
		case status == http.StatusTooManyRequests:
			// A 429 proves the request was refused before any work — the
			// admission gate sheds ahead of the handler — so retrying is
			// safe even for Reload. The wait honors the server's
			// Retry-After (capped), falling back to the backoff schedule,
			// and fails fast when the caller's deadline cannot cover it:
			// sleeping into a guaranteed DeadlineExceeded would discard
			// the structured refusal the caller can actually act on.
			rle := rateLimitError(status, data, hdr)
			if attempt >= c.retries {
				return rle
			}
			wait := rle.RetryAfter
			if wait <= 0 {
				wait = backoff
			}
			if wait > maxRetryAfterWait {
				wait = maxRetryAfterWait
			}
			if dl, ok := ctx.Deadline(); ok && time.Until(dl) < wait {
				return rle
			}
			select {
			case <-time.After(wait):
				backoff *= 2
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		case status >= 400:
			return apiError(status, data)
		default:
			if out == nil {
				return nil
			}
			if err := json.Unmarshal(data, out); err != nil {
				return fmt.Errorf("yalaclient: decoding %s response: %w", path, err)
			}
			return nil
		}
		if attempt >= c.retries {
			return lastErr
		}
		select {
		case <-time.After(backoff):
			backoff *= 2
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// dialError reports a transport failure that provably happened before
// the request left the client — the connection never opened — making a
// retry safe even for non-idempotent calls.
func dialError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// maxRetryAfterWait caps how long the retry loop honors a server's
// Retry-After hint — a hostile or misconfigured server must not be able
// to park a client for minutes with one header.
const maxRetryAfterWait = 10 * time.Second

// maxResponseBytes caps how much of a response body the client will
// buffer, mirroring the server's request-side cap: a misbehaving or
// hostile endpoint must not be able to OOM the SDK with one response.
const maxResponseBytes = 10 << 20

// ErrResponseTooLarge reports a response body that exceeded
// maxResponseBytes. The read stops at the cap; nothing oversized is
// retained.
var ErrResponseTooLarge = fmt.Errorf("yalaclient: response body exceeds %d-byte cap", maxResponseBytes)

// roundTrip performs one HTTP exchange and reads the response, bounded
// by maxResponseBytes.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte) ([]byte, int, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.apiKey)
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return nil, 0, nil, err
	}
	if len(data) > maxResponseBytes {
		return nil, 0, nil, ErrResponseTooLarge
	}
	return data, resp.StatusCode, resp.Header, nil
}

// apiError decodes the /v2 error envelope, falling back to the raw
// status.
func apiError(status int, data []byte) error {
	var v2 struct {
		Error struct {
			Code      string `json:"code"`
			Message   string `json:"message"`
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	if json.Unmarshal(data, &v2) == nil && v2.Error.Message != "" {
		return &APIError{StatusCode: status, Code: v2.Error.Code, Message: v2.Error.Message, RequestID: v2.Error.RequestID}
	}
	return &APIError{StatusCode: status}
}

// rateLimitError builds the typed 429 error, parsing the Retry-After
// header (delta-seconds or HTTP-date; unparseable or absent → 0).
func rateLimitError(status int, data []byte, hdr http.Header) *RateLimitError {
	e := &RateLimitError{RetryAfter: parseRetryAfter(hdr.Get("Retry-After"))}
	var base *APIError
	if errors.As(apiError(status, data), &base) {
		e.APIError = *base
	}
	return e
}

// parseRetryAfter decodes a Retry-After header value. Both RFC 9110
// forms are accepted; negatives clamp to 0.
func parseRetryAfter(v string) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			secs = 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// modelPath renders a backend-scoped custom-method path.
func modelPath(m ModelID, backendName, verb string) string {
	if backendName == "" {
		backendName = DefaultBackend
	}
	return "/v2/models/" + url.PathEscape(m.String()) + "/" + url.PathEscape(backendName) + ":" + verb
}

// Predict estimates the model's throughput for one scenario via the
// named backend ("" = DefaultBackend). With WithWire configured the
// exchange runs over the binary wire transport, falling back to HTTP
// transparently on any transport failure.
func (c *Client) Predict(ctx context.Context, m ModelID, backendName string, p PredictParams) (PredictResult, error) {
	if c.wireReady() {
		out, err := c.wirePredict(ctx, m, backendName, p)
		if !c.wireFallback(err) {
			return out, err
		}
	}
	var out PredictResult
	err := c.do(ctx, http.MethodPost, modelPath(m, backendName, "predict"), p, &out)
	return out, err
}

// PredictBatch evaluates many scenarios in one round trip. Like
// Predict, it prefers the wire transport when WithWire is configured.
func (c *Client) PredictBatch(ctx context.Context, items []BatchItem) (BatchResult, error) {
	if c.wireReady() {
		out, err := c.wirePredictBatch(ctx, items)
		if !c.wireFallback(err) {
			return out, err
		}
	}
	return c.httpPredictBatch(ctx, items)
}

// httpPredictBatch is the JSON round trip behind PredictBatch.
func (c *Client) httpPredictBatch(ctx context.Context, items []BatchItem) (BatchResult, error) {
	var out BatchResult
	err := c.do(ctx, http.MethodPost, "/v2/models:batchPredict", wire.BatchParams{Requests: items}, &out)
	return out, err
}

// Ingest reports one ground-truth measurement into the server's
// online-feedback loop.
func (c *Client) Ingest(ctx context.Context, m Measurement) (IngestResult, error) {
	return c.IngestBatch(ctx, []Measurement{m})
}

// IngestBatch reports many ground-truth measurements in one round
// trip. Ingestion is idempotent in aggregate terms — the server's
// feedback windows are bounded rings, so a retried batch merely
// re-observes — which makes the standard retry schedule safe. It always
// uses HTTP, like every call WithWire does not name.
func (c *Client) IngestBatch(ctx context.Context, items []Measurement) (IngestResult, error) {
	var out IngestResult
	err := c.do(ctx, http.MethodPost, "/v2/ingest", wire.IngestParams{Measurements: items}, &out)
	return out, err
}

// Compare runs Yala and the SLOMO baseline on the same scenario.
func (c *Client) Compare(ctx context.Context, m ModelID, p CompareParams) (CompareResult, error) {
	var out CompareResult
	err := c.do(ctx, http.MethodPost, "/v2/models/"+url.PathEscape(m.String())+":compare", p, &out)
	return out, err
}

// Admit asks whether the model's NF can join the residents without
// breaking any SLA, per the named backend's predictions.
func (c *Client) Admit(ctx context.Context, m ModelID, backendName string, p AdmitParams) (AdmitResult, error) {
	var out AdmitResult
	err := c.do(ctx, http.MethodPost, modelPath(m, backendName, "admit"), p, &out)
	return out, err
}

// Diagnose attributes the scenario's predicted slowdown to a resource.
func (c *Client) Diagnose(ctx context.Context, m ModelID, p PredictParams) (DiagnoseResult, error) {
	var out DiagnoseResult
	err := c.do(ctx, http.MethodPost, "/v2/models/"+url.PathEscape(m.String())+":diagnose", p, &out)
	return out, err
}

// Reload evicts the model from the server's registry so the next
// request re-reads the model directory. Reload is the one mutating
// custom method, so it never retries an ambiguous failure — against a
// gateway it fans out to every replica, and re-sending would re-trigger
// the fan-out (WithRetries still covers dial failures, where the
// request provably never left).
func (c *Client) Reload(ctx context.Context, m ModelID, backendName string) error {
	return c.doNonIdempotent(ctx, http.MethodPost, modelPath(m, backendName, "reload"), nil, nil)
}

// ListModels fetches one page of the server's model listing.
func (c *Client) ListModels(ctx context.Context, p ListModelsParams) (ModelsPage, error) {
	q := url.Values{}
	if p.PageSize > 0 {
		q.Set("page_size", strconv.Itoa(p.PageSize))
	}
	if p.PageToken != "" {
		q.Set("page_token", p.PageToken)
	}
	path := "/v2/models"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out ModelsPage
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// AllModels walks the listing to completion. Page tokens are
// offset-based, so a listing that grows mid-walk (a concurrent request
// lazy-loading a new model) can shift entries across page boundaries;
// treat the result as a snapshot-quality inventory, not a transactional
// one.
func (c *Client) AllModels(ctx context.Context) ([]ModelInfo, error) {
	var all []ModelInfo
	params := ListModelsParams{}
	for {
		page, err := c.ListModels(ctx, params)
		if err != nil {
			return nil, err
		}
		all = append(all, page.Models...)
		if page.NextPageToken == "" {
			return all, nil
		}
		params.PageToken = page.NextPageToken
	}
}

// ClusterRun executes a fleet-orchestration comparison on the server.
func (c *Client) ClusterRun(ctx context.Context, p ClusterRunParams) (ClusterComparison, error) {
	var out ClusterComparison
	err := c.do(ctx, http.MethodPost, "/v2/cluster/runs", p, &out)
	return out, err
}

// ClusterPolicies lists the scheduling policies the server runs.
func (c *Client) ClusterPolicies(ctx context.Context) ([]string, error) {
	var out struct {
		Policies []string `json:"policies"`
	}
	err := c.do(ctx, http.MethodGet, "/v2/cluster/policies", nil, &out)
	return out.Policies, err
}

// Stats snapshots the server's operator counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var out Stats
	err := c.do(ctx, http.MethodGet, "/v2/stats", nil, &out)
	return out, err
}

// Health probes the server's liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// GatewayStats snapshots a scale-out gateway's routing state: health,
// request distribution and fan-out counters per replica, plus the edge
// cache's counters. Only a yala gateway serves this endpoint — against
// a plain yala serve it returns a not_found APIError, which is also the
// cheap way to ask "is this base URL a gateway?".
func (c *Client) GatewayStats(ctx context.Context) (GatewayStats, error) {
	var out GatewayStats
	err := c.do(ctx, http.MethodGet, "/v2/gateway/stats", nil, &out)
	return out, err
}
