package api

import (
	"context"
	"net/http"
	"strings"

	"repro/internal/obs"
)

// AdoptRequestID applies the one adoption rule to a client-sent
// X-Request-Id (or a wire Call's RequestID): the trimmed ID when it is
// non-empty and at most 64 bytes, else "" — the caller mints its own.
func AdoptRequestID(sent string) string {
	sent = strings.TrimSpace(sent)
	if len(sent) > 64 {
		return ""
	}
	return sent
}

// RequestID reads the request's ID back out of its context, "" on a
// context no trace middleware touched (direct library use).
func RequestID(ctx context.Context) string {
	if tr := obs.FromContext(ctx); tr != nil {
		return tr.ID
	}
	return ""
}

// ForwardedHeaders is the one allow-list of replica response headers
// that cross a hop: a TypeCallResp carries exactly these back, and the
// gateway copies exactly these downstream (on HTTP and wire upstreams
// alike), so clients behind a gateway still see a 405's Allow and a
// 429's Retry-After backoff hint. Hop metadata stays behind.
var ForwardedHeaders = []string{"Content-Type", "X-Request-Id", "Allow", "Retry-After"}

// CopyForwarded copies the ForwardedHeaders present in src into dst.
func CopyForwarded(dst, src http.Header) {
	for _, k := range ForwardedHeaders {
		if v := src.Get(k); v != "" {
			dst.Set(k, v)
		}
	}
}
