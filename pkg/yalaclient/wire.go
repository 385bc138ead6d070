package yalaclient

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/wire"
)

// wireParkDuration is how long the client stops attempting the wire
// path after a transport failure. Within the grace window every call
// goes straight to HTTP, so a dead listener costs one failed dial, not
// one failed dial per request.
const wireParkDuration = 5 * time.Second

// wireIdleConns sizes the wire pool for load-generation fan-out,
// mirroring the HTTP transport's generous idle-connection budget in
// spirit (wire connections are serial per exchange, so the pool is the
// concurrency ceiling for retained connections; extras dial-and-discard).
const wireIdleConns = 16

// wireReady reports whether the wire path should be attempted: it is
// configured and not parked by a recent transport failure. A path that
// was never parked answers without reading the clock.
func (c *Client) wireReady() bool {
	if c.wire == nil {
		return false
	}
	at := c.wireRetryAt.Load()
	return at == 0 || time.Now().UnixNano() >= at
}

// WireActive reports whether the binary wire transport is currently in
// use for Predict/PredictBatch: WithWire was configured and the path is
// not parked by a recent transport failure. It exists for operational
// visibility (loadgen reports, tests); callers never need to branch on
// it for correctness — fallback to HTTP is automatic.
func (c *Client) WireActive() bool { return c.wireReady() }

// wireFallback decides what to do with a wire-path error: true means
// "re-issue this call over HTTP", false means "return (out, err) to
// the caller as-is". A transport failure parks the wire path and falls
// back; a retryable application refusal (5xx, 429) falls back only
// when the caller opted into WithRetries, so the standard HTTP
// backoff/Retry-After schedule applies; every other outcome — success,
// 4xx, caller cancellation — is final.
func (c *Client) wireFallback(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, wire.ErrTransport) {
		c.wireRetryAt.Store(time.Now().Add(wireParkDuration).UnixNano())
		return true
	}
	if c.retries <= 0 {
		return false
	}
	var rle *RateLimitError
	if errors.As(err, &rle) {
		return true
	}
	var ae *APIError
	return errors.As(err, &ae) && ae.StatusCode >= 500
}

// exchange runs one request/response over the wire transport — the
// skeleton every wire call shares: the client's timeout, Pool.Do, and
// the {want | TypeError | anything else is protocol damage} switch.
// buf is a wire.GetBuf buffer holding the encoded request; exchange
// returns it to the pool. decode runs inside Do's callback, the only
// place the response payload is valid.
func (c *Client) exchange(ctx context.Context, reqType, want byte, buf []byte, decode func(payload []byte) error) error {
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	err := c.wire.Do(ctx, reqType, buf, func(f wire.Frame) error {
		switch f.Type {
		case want:
			return decode(f.Payload)
		case wire.TypeError:
			return wireError(f.Payload)
		default:
			return fmt.Errorf("%w: unexpected frame type %d", wire.ErrTransport, f.Type)
		}
	})
	wire.PutBuf(buf)
	if err != nil && ctx.Err() != nil {
		// The exchange died because the caller gave up; surface that,
		// not a transport-flavored wrapper (and never park the wire
		// path over it).
		return ctx.Err()
	}
	return err
}

// wirePredict runs one Predict exchange over the wire transport.
func (c *Client) wirePredict(ctx context.Context, m ModelID, backendName string, p PredictParams) (out PredictResult, err error) {
	if backendName == "" {
		backendName = DefaultBackend
	}
	req := wire.PredictRequest{NF: m.NF, HW: m.HW, Backend: backendName, Profile: p.Profile, Competitors: p.Competitors}
	buf := wire.AppendPredictRequest(wire.GetBuf(), &req)
	err = c.exchange(ctx, wire.TypePredict, wire.TypePredictResp, buf, func(payload []byte) error {
		resp, derr := wire.DecodePredictResponse(payload)
		if derr != nil {
			return fmt.Errorf("%w: %v", wire.ErrTransport, derr)
		}
		out = asJSON(resp)
		return nil
	})
	return out, err
}

// wirePredictBatch runs one PredictBatch exchange over the wire
// transport.
func (c *Client) wirePredictBatch(ctx context.Context, items []BatchItem) (out BatchResult, err error) {
	req := wire.BatchRequest{Requests: make([]wire.PredictRequest, len(items))}
	for i, it := range items {
		req.Requests[i] = wire.PredictRequest{NF: it.Model.NF, HW: it.Model.HW, Backend: it.Backend, Profile: it.Profile, Competitors: it.Competitors}
	}
	buf := wire.AppendBatchRequest(wire.GetBuf(), &req)
	err = c.exchange(ctx, wire.TypeBatch, wire.TypeBatchResp, buf, func(payload []byte) error {
		resp, derr := wire.DecodeBatchResponse(payload)
		if derr != nil {
			return fmt.Errorf("%w: %v", wire.ErrTransport, derr)
		}
		for i := range resp.Responses {
			resp.Responses[i] = asJSON(resp.Responses[i])
		}
		if resp.Responses == nil {
			resp.Responses = []PredictResult{} // as JSON decodes an empty batch
		}
		out = resp
		return nil
	})
	return out, err
}

// wireError decodes a TypeError payload into the same typed errors the
// HTTP path produces, so callers branch on *APIError/*RateLimitError
// without caring which transport answered.
func wireError(payload []byte) error {
	ef, err := wire.DecodeError(payload)
	if err != nil {
		return fmt.Errorf("%w: %v", wire.ErrTransport, err)
	}
	ae := APIError{
		StatusCode: ef.Status,
		Code:       ef.Code,
		Message:    ef.Message,
		RequestID:  ef.RequestID,
	}
	if ef.Status == http.StatusTooManyRequests {
		return &RateLimitError{
			APIError:   ae,
			RetryAfter: time.Duration(ef.RetryAfterSec * float64(time.Second)),
		}
	}
	return &ae
}

// asJSON moves a decoded answer's per-resource rows into PerResourcePPS,
// so an answer is the value the JSON path decodes, rows nil, whichever
// transport carried it.
func asJSON(r PredictResult) PredictResult {
	if len(r.PerResource) > 0 {
		r.PerResourcePPS = make(map[string]float64, len(r.PerResource))
		for _, rp := range r.PerResource {
			r.PerResourcePPS[rp.Resource] = rp.PPS
		}
	}
	r.PerResource = nil
	return r
}
