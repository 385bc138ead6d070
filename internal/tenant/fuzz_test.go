package tenant

import (
	"net/http"
	"testing"
	"time"
)

// FuzzTenantFile holds the -tenants parser to three properties: no
// input panics; an accepted registry has unique names and keys, and
// every key resolves to its own tenant; and draining any rate-limited
// tenant's bucket at one instant ends in a 429 that advertises a
// positive, bounded wait.
func FuzzTenantFile(f *testing.F) {
	// README's example file, CI's tenant smoke file, and edge rates.
	f.Add([]byte(`{
  "tenants": [
    {"name": "team-a", "key": "ka-9f31", "rps": 200, "burst": 400},
    {"name": "batch-etl", "key": "kb-77c0", "rps": 50, "bulk_rps": 5}
  ],
  "anonymous": {"name": "anonymous", "rps": 10},
  "require_key": false
}`))
	f.Add([]byte(`{"tenants": [{"name": "quiet", "key": "tenant-0"}, {"name": "flooder", "key": "tenant-1", "rps": 5, "burst": 5}]}`))
	f.Add([]byte(`{"tenants": [{"name": "slow", "key": "k", "rps": 1e-10}], "require_key": true}`))
	f.Add([]byte(`{"tenants": [{"name": "fast", "key": "k", "rps": 1e300, "burst": 1, "bulk_rps": 1e-300, "bulk_burst": 0.5}]}`))
	f.Add([]byte(`{"anonymous": {"rps": 0.25, "burst": 1.5}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		reg, err := Parse(data)
		if err != nil {
			return
		}
		names := map[string]bool{}
		keys := map[string]bool{}
		for _, tn := range reg.Tenants() {
			if names[tn.name] {
				t.Fatalf("duplicate tenant name %q accepted", tn.name)
			}
			names[tn.name] = true
			if tn == reg.anon {
				continue
			}
			if tn.key == "" || keys[tn.key] {
				t.Fatalf("tenant %q has an empty or shared key", tn.name)
			}
			keys[tn.key] = true
			if got, ok := reg.Lookup(tn.key); !ok || got != tn {
				t.Fatalf("key of tenant %q does not resolve to it", tn.name)
			}
		}

		g := NewGate(reg, GateConfig{})
		now := time.Unix(1000, 0)
		for _, tn := range reg.Tenants() {
			for _, class := range []Class{ClassInteractive, ClassBulk} {
				b := tn.bucketFor(class)
				if b == nil || b.Burst() > 64 {
					continue
				}
				// floor(burst) tokens admit; the next call is refused.
				n := int(b.Burst()) + 1
				var d Decision
				for i := 0; i < n; i++ {
					d = g.Admit(tn.key, class, now)
					if d.Tenant != tn {
						t.Fatalf("key of tenant %q admitted as %v", tn.name, d.Tenant)
					}
				}
				if d.OK || d.Status != http.StatusTooManyRequests || !d.RateLimited {
					t.Fatalf("tenant %q %s: call %d past a %.4g burst = %+v, want a rate-limited 429", tn.name, class, n, b.Burst(), d)
				}
				if d.RetryAfter <= 0 || d.RetryAfter > maxRetryAfter {
					t.Fatalf("tenant %q %s: RetryAfter %v at %.4g rps, want (0, %v]", tn.name, class, d.RetryAfter, b.Rate(), maxRetryAfter)
				}
			}
		}
	})
}
