// Package fixture exercises the envelope analyzer's package scope:
// loaded by the golden test as internal/tenant, which writes its
// refusals through internal/api and owns no envelope writer of its own.
package fixture

import "net/http"

// shed hand-rolls a refusal — flagged: the gate must answer through
// api.WriteError like every other tier.
func shed(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	w.WriteHeader(http.StatusTooManyRequests)
}

// observed forwards the status a wrapped handler chose — fine.
func observed(w http.ResponseWriter, status int) {
	w.WriteHeader(status)
}
