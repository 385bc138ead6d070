package yalaclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestModelIDString(t *testing.T) {
	if got := (ModelID{NF: "FlowStats"}).String(); got != "FlowStats" {
		t.Fatalf("plain id %q", got)
	}
	if got := (ModelID{NF: "FlowStats", HW: "pensando"}).String(); got != "FlowStats@pensando" {
		t.Fatalf("qualified id %q", got)
	}
}

// TestWithTimeoutOrderSafe locks in the option contract: the timeout
// applies regardless of option order and never mutates a caller-owned
// http.Client.
func TestWithTimeoutOrderSafe(t *testing.T) {
	shared := &http.Client{}
	c := New("http://x", WithTimeout(5*time.Second), WithHTTPClient(shared))
	if c.httpc.Timeout != 5*time.Second {
		t.Fatalf("timeout lost when WithHTTPClient follows: %v", c.httpc.Timeout)
	}
	if shared.Timeout != 0 {
		t.Fatalf("caller-owned client mutated: %v", shared.Timeout)
	}
	c = New("http://x", WithHTTPClient(shared), WithTimeout(5*time.Second))
	if c.httpc.Timeout != 5*time.Second || shared.Timeout != 0 {
		t.Fatalf("reversed order: client %v, shared %v", c.httpc.Timeout, shared.Timeout)
	}
}

// TestAPIErrorDecoding covers the /v2 envelope and the raw-status
// fallback for anything else — including the flat {"error": "..."}
// shape only the removed /v1 surface ever produced.
func TestAPIErrorDecoding(t *testing.T) {
	var body atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(body.Load().(string)))
	}))
	defer ts.Close()
	c := New(ts.URL)

	body.Store(`{"error":{"code":"invalid_argument","message":"nope","request_id":"req-000042"}}`)
	_, err := c.Predict(context.Background(), ModelID{NF: "x"}, "", PredictParams{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "invalid_argument" || apiErr.RequestID != "req-000042" {
		t.Fatalf("v2 envelope decoded as %v", err)
	}

	for _, raw := range []string{`{"error":"flat message"}`, `not json at all`} {
		body.Store(raw)
		_, err = c.Predict(context.Background(), ModelID{NF: "x"}, "", PredictParams{})
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest || apiErr.Message != "" || apiErr.Code != "" {
			t.Fatalf("body %q: raw fallback decoded as %v", raw, err)
		}
	}
}

// TestRetries asserts 5xx responses retry up to the configured budget
// and 4xx responses never do.
func TestRetries(t *testing.T) {
	var calls atomic.Int64
	var status atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(int(status.Load()))
		w.Write([]byte(`{"error":{"code":"unavailable","message":"busy"}}`))
	}))
	defer ts.Close()

	status.Store(http.StatusServiceUnavailable)
	c := New(ts.URL, WithRetries(2), WithRetryBackoff(time.Millisecond))
	if _, err := c.Stats(context.Background()); err == nil {
		t.Fatal("expected error from always-503 server")
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("5xx retried %d calls, want 3 (1 + 2 retries)", got)
	}

	calls.Store(0)
	status.Store(http.StatusBadRequest)
	if _, err := c.Stats(context.Background()); err == nil {
		t.Fatal("expected error from 400 server")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("4xx retried %d calls, want exactly 1", got)
	}
}

// TestIngestBatch covers the ingest round trip: the wire shape renders
// model IDs as resource names, the result decodes, and — because a
// repeated batch merely re-observes bounded windows — transport flakes
// retry like any idempotent call.
func TestIngestBatch(t *testing.T) {
	var calls atomic.Int64
	var failFirst atomic.Int64
	var gotBody atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v2/ingest" || r.Method != http.MethodPost {
			t.Errorf("unexpected %s %s", r.Method, r.URL.Path)
		}
		if calls.Add(1) <= failFirst.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":{"code":"unavailable","message":"busy"}}`))
			return
		}
		var params struct {
			Measurements []map[string]any `json:"measurements"`
		}
		if err := json.NewDecoder(r.Body).Decode(&params); err != nil {
			t.Errorf("decoding ingest body: %v", err)
		}
		gotBody.Store(params.Measurements)
		fmt.Fprintf(w, `{"accepted":%d,"quarantined":0}`, len(params.Measurements))
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetries(2), WithRetryBackoff(time.Millisecond))
	failFirst.Store(1)
	res, err := c.IngestBatch(context.Background(), []Measurement{
		{Model: ModelID{NF: "FlowStats", HW: "pensando"}, Backend: "yala", MeasuredPPS: 1e6, Source: "rig-1"},
		{Model: ModelID{NF: "ACL"}, MeasuredPPS: 2e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 2 || res.Quarantined != 0 {
		t.Fatalf("ingest result %+v", res)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("flaked ingest made %d calls, want 2 (1 failure + 1 retry)", got)
	}
	ms := gotBody.Load().([]map[string]any)
	if len(ms) != 2 || ms[0]["model"] != "FlowStats@pensando" || ms[1]["model"] != "ACL" {
		t.Fatalf("wire measurements %+v", ms)
	}
	if ms[0]["source"] != "rig-1" || ms[0]["measured_pps"] != 1e6 {
		t.Fatalf("measurement fields %+v", ms[0])
	}

	// Single-measurement convenience form.
	calls.Store(0)
	failFirst.Store(0)
	if res, err = c.Ingest(context.Background(), Measurement{Model: ModelID{NF: "NAT"}, MeasuredPPS: 5e5}); err != nil || res.Accepted != 1 {
		t.Fatalf("single ingest: %+v, %v", res, err)
	}
}

// TestRetryIdempotency is the non-idempotent-retry contract: a flaky
// server that answers the first attempt with a 500 (or kills the
// connection mid-response) must see exactly one :reload attempt — the
// request may already have been acted on — while :predict, which is
// deterministic and safe to duplicate, retries through the same flake
// and succeeds.
func TestRetryIdempotency(t *testing.T) {
	var calls atomic.Int64
	var failFirst atomic.Int64 // how many leading calls fail
	var hijack atomic.Bool     // fail by severing the connection instead of a 500
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n <= failFirst.Load() {
			if hijack.Load() {
				// An ambiguous transport error: the request was fully
				// received, then the connection dies without a response.
				conn, _, err := w.(http.Hijacker).Hijack()
				if err != nil {
					t.Errorf("hijack: %v", err)
					return
				}
				conn.Close()
				return
			}
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"error":{"code":"internal","message":"flake"}}`))
			return
		}
		fmt.Fprint(w, `{}`)
	}))
	defer ts.Close()
	c := New(ts.URL, WithRetries(3), WithRetryBackoff(time.Millisecond))
	ctx := context.Background()

	// Idempotent predict rides through a one-500 flake.
	failFirst.Store(1)
	if _, err := c.Predict(ctx, ModelID{NF: "ACL"}, "", PredictParams{}); err != nil {
		t.Fatalf("predict through a 500 flake: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("predict made %d attempts, want 2", got)
	}

	// Non-idempotent reload must not retry a 5xx: the server saw it.
	calls.Store(0)
	failFirst.Store(1)
	if err := c.Reload(ctx, ModelID{NF: "ACL"}, "yala"); err == nil {
		t.Fatal("reload through a 500 flake must fail, not retry")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("reload made %d attempts on a 5xx, want exactly 1", got)
	}

	// ...nor an ambiguous transport error (connection severed after the
	// request was delivered).
	calls.Store(0)
	failFirst.Store(1)
	hijack.Store(true)
	if err := c.Reload(ctx, ModelID{NF: "ACL"}, "yala"); err == nil {
		t.Fatal("reload through a severed connection must fail, not retry")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("reload made %d attempts on a severed connection, want exactly 1", got)
	}

	// The same severed connection is retried for the idempotent predict.
	calls.Store(0)
	failFirst.Store(1)
	if _, err := c.Predict(ctx, ModelID{NF: "ACL"}, "", PredictParams{}); err != nil {
		t.Fatalf("predict through a severed connection: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("predict made %d attempts, want 2", got)
	}
}

// TestReloadRetriesDialFailure: a dial failure proves the request never
// left the client, so even the non-idempotent reload may retry it.
func TestReloadRetriesDialFailure(t *testing.T) {
	// A server that dies after the client learns its address: every
	// subsequent dial is refused.
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()
	start := time.Now()
	err := New(url, WithRetries(2), WithRetryBackoff(time.Millisecond)).
		Reload(context.Background(), ModelID{NF: "ACL"}, "yala")
	if err == nil {
		t.Fatal("reload against a dead server must fail")
	}
	// Three dial attempts with 1ms+2ms backoff — if the dial-failure
	// path skipped retries the call would return almost instantly; the
	// real assertion is just that it does not hang and does not panic.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retries took %v", elapsed)
	}
	if !dialError(errors.Unwrap(err)) && !dialError(err) {
		t.Fatalf("expected a dial-classified error, got %v", err)
	}
}

// TestRetryHonorsContext: cancellation between attempts ends the retry
// loop immediately with the context's error, no matter how much retry
// budget remains.
func TestRetryHonorsContext(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":{"code":"unavailable","message":"busy"}}`))
	}))
	defer ts.Close()

	// A huge backoff and budget: without the ctx check the loop would
	// park for minutes.
	c := New(ts.URL, WithRetries(100), WithRetryBackoff(time.Minute))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Stats(ctx)
		done <- err
	}()
	// Wait for the first attempt to land, then cancel mid-backoff.
	for i := 0; calls.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled retry loop returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry loop ignored context cancellation")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("canceled loop made %d attempts, want 1", got)
	}

	// A context canceled before the call starts never reaches the wire.
	calls.Store(0)
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := c.Stats(pre); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled call returned %v", err)
	}
}

// TestWithAPIKeyHeader: the key rides every request as a Bearer token.
func TestWithAPIKeyHeader(t *testing.T) {
	var auth atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		auth.Store(r.Header.Get("Authorization"))
		fmt.Fprint(w, `{}`)
	}))
	defer ts.Close()
	c := New(ts.URL, WithAPIKey(" k-team-a "))
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := auth.Load().(string); got != "Bearer k-team-a" {
		t.Fatalf("Authorization = %q, want trimmed bearer token", got)
	}
}

// TestParseRetryAfter covers both RFC 9110 forms and the junk cases.
func TestParseRetryAfter(t *testing.T) {
	if got := parseRetryAfter("3"); got != 3*time.Second {
		t.Fatalf("delta-seconds: %v", got)
	}
	if got := parseRetryAfter("-2"); got != 0 {
		t.Fatalf("negative: %v", got)
	}
	if got := parseRetryAfter(""); got != 0 {
		t.Fatalf("absent: %v", got)
	}
	if got := parseRetryAfter("soon"); got != 0 {
		t.Fatalf("garbage: %v", got)
	}
	date := time.Now().Add(30 * time.Second).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(date); got <= 25*time.Second || got > 30*time.Second {
		t.Fatalf("http-date: %v", got)
	}
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(past); got != 0 {
		t.Fatalf("past http-date: %v", got)
	}
}

// TestRateLimitErrorTyped: a 429 surfaces as *RateLimitError carrying
// the envelope fields and the parsed Retry-After.
func TestRateLimitErrorTyped(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":{"code":"resource_exhausted","message":"tenant over limit","request_id":"req-000007"}}`))
	}))
	defer ts.Close()
	_, err := New(ts.URL).Stats(context.Background())
	var rle *RateLimitError
	if !errors.As(err, &rle) {
		t.Fatalf("429 decoded as %T: %v", err, err)
	}
	if rle.StatusCode != http.StatusTooManyRequests || rle.Code != "resource_exhausted" ||
		rle.RequestID != "req-000007" || rle.RetryAfter != 2*time.Second {
		t.Fatalf("rate-limit error fields: %+v", rle)
	}
}

// TestRateLimitRetryHonorsRetryAfter: with retry budget, the loop waits
// out the server's hint and then succeeds — including for the
// non-idempotent reload, since a 429 proves the request was shed before
// any work.
func TestRateLimitRetryHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":{"code":"resource_exhausted","message":"slow down"}}`))
			return
		}
		fmt.Fprint(w, `{}`)
	}))
	defer ts.Close()
	c := New(ts.URL, WithRetries(1), WithRetryBackoff(time.Millisecond))

	start := time.Now()
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatalf("stats through a 429: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("retry waited %v, want ~1s per Retry-After (not the 1ms backoff)", elapsed)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("made %d attempts, want 2", got)
	}

	calls.Store(0)
	if err := c.Reload(context.Background(), ModelID{NF: "ACL"}, "yala"); err != nil {
		t.Fatalf("reload through a 429: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("reload made %d attempts through a 429, want 2", got)
	}
}

// TestRateLimitFailsFastOnShortDeadline: when the caller's deadline
// cannot cover the advertised wait, the loop returns the structured
// refusal immediately instead of sleeping into DeadlineExceeded.
func TestRateLimitFailsFastOnShortDeadline(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":{"code":"resource_exhausted","message":"slow down"}}`))
	}))
	defer ts.Close()
	c := New(ts.URL, WithRetries(5), WithRetryBackoff(time.Millisecond))

	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Stats(ctx)
	var rle *RateLimitError
	if !errors.As(err, &rle) {
		t.Fatalf("short-deadline 429 returned %v, want *RateLimitError", err)
	}
	if rle.RetryAfter != 5*time.Second {
		t.Fatalf("Retry-After %v, want 5s", rle.RetryAfter)
	}
	if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
		t.Fatalf("fail-fast took %v — the loop slept on a hopeless wait", elapsed)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("made %d attempts, want 1 (deadline cannot cover any retry)", got)
	}
}

// TestRequestShapes pins the wire paths and bodies the SDK emits.
func TestRequestShapes(t *testing.T) {
	type seen struct {
		method, path, body string
	}
	var last atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		buf := make([]byte, r.ContentLength+1)
		n, _ := r.Body.Read(buf)
		last.Store(seen{r.Method, r.URL.RequestURI(), string(buf[:n])})
		fmt.Fprint(w, `{}`)
	}))
	defer ts.Close()
	c := New(ts.URL)
	ctx := context.Background()

	if _, err := c.Predict(ctx, ModelID{NF: "FlowStats", HW: "pensando"}, "slomo", PredictParams{}); err != nil {
		t.Fatal(err)
	}
	if got := last.Load().(seen); got.path != "/v2/models/FlowStats@pensando/slomo:predict" {
		t.Fatalf("predict path %q", got.path)
	}

	if _, err := c.Predict(ctx, ModelID{NF: "ACL"}, "", PredictParams{}); err != nil {
		t.Fatal(err)
	}
	if got := last.Load().(seen); got.path != "/v2/models/ACL/yala:predict" {
		t.Fatalf("default-backend path %q", got.path)
	}

	if err := c.Reload(ctx, ModelID{NF: "ACL"}, "yala"); err != nil {
		t.Fatal(err)
	}
	if got := last.Load().(seen); got.path != "/v2/models/ACL/yala:reload" || got.body != "" {
		t.Fatalf("reload request %+v", got)
	}

	if _, err := c.PredictBatch(ctx, []BatchItem{{Model: ModelID{NF: "NAT"}}}); err != nil {
		t.Fatal(err)
	}
	got := last.Load().(seen)
	if got.path != "/v2/models:batchPredict" {
		t.Fatalf("batch path %q", got.path)
	}
	var batch struct {
		Requests []map[string]any `json:"requests"`
	}
	if err := json.Unmarshal([]byte(got.body), &batch); err != nil || len(batch.Requests) != 1 {
		t.Fatalf("batch body %q: %v", got.body, err)
	}
	if batch.Requests[0]["model"] != "NAT" {
		t.Fatalf("batch element %+v", batch.Requests[0])
	}

	if _, err := c.ListModels(ctx, ListModelsParams{PageSize: 2, PageToken: "tok"}); err != nil {
		t.Fatal(err)
	}
	if got := last.Load().(seen); got.path != "/v2/models?page_size=2&page_token=tok" {
		t.Fatalf("list path %q", got.path)
	}
}

// TestAllModelsPagination walks a two-page listing.
func TestAllModelsPagination(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("page_token") == "" {
			fmt.Fprint(w, `{"models":[{"id":"A/yala"},{"id":"B/yala"}],"next_page_token":"p2","total_size":3}`)
			return
		}
		fmt.Fprint(w, `{"models":[{"id":"C/yala"}],"total_size":3}`)
	}))
	defer ts.Close()
	models, err := New(ts.URL).AllModels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 3 || models[2].ID != "C/yala" {
		t.Fatalf("paginated walk: %+v", models)
	}
}
