package tenant

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"

	"repro/internal/obs"
)

// Class is a request priority class. Interactive traffic (single-model
// :predict/:admit/:compare/:diagnose) is what tenants are latency-
// sensitive about; bulk traffic (:batchPredict, cluster runs) is
// throughput work that sheds first under pressure.
type Class int

const (
	ClassInteractive Class = iota
	ClassBulk
	numClasses
)

// String names the class for labels and stats.
func (c Class) String() string {
	if c == ClassBulk {
		return "bulk"
	}
	return "interactive"
}

// Spec is one tenant's configuration as it appears in the -tenants
// JSON file.
type Spec struct {
	// Name identifies the tenant in stats, metrics and logs; unique.
	Name string `json:"name"`
	// Key is the API key presented as `Authorization: Bearer <key>` or
	// `X-API-Key: <key>`; unique across tenants. Empty only on the
	// anonymous spec.
	Key string `json:"key,omitempty"`
	// RPS is the sustained request rate across both classes (token
	// bucket refill); 0 means unlimited.
	RPS float64 `json:"rps,omitempty"`
	// Burst is the bucket capacity; 0 defaults to 2·RPS (min 1).
	Burst float64 `json:"burst,omitempty"`
	// BulkRPS, when positive, moves the bulk class to its own bucket at
	// this rate, so a tenant's batch jobs cannot starve its interactive
	// quota. 0 charges bulk requests to the shared bucket above.
	BulkRPS float64 `json:"bulk_rps,omitempty"`
	// BulkBurst is the bulk bucket capacity; 0 defaults to 2·BulkRPS
	// (min 1).
	BulkBurst float64 `json:"bulk_burst,omitempty"`
}

// File is the -tenants JSON file shape.
type File struct {
	// Tenants lists the keyed tenants.
	Tenants []Spec `json:"tenants"`
	// Anonymous configures the tenant serving keyless requests; nil
	// means anonymous traffic is unlimited (the pre-multi-tenancy
	// behavior). Its Key must be empty.
	Anonymous *Spec `json:"anonymous,omitempty"`
	// RequireKey rejects keyless requests with 401 instead of admitting
	// them as the anonymous tenant.
	RequireKey bool `json:"require_key,omitempty"`
}

// Tenant is one live tenant: identity, limiters, and SLO accounting.
// Counter fields are atomics so the admission path never takes a lock
// beyond the charged bucket's.
type Tenant struct {
	name string
	key  string

	// shared limits both classes; bulk, when non-nil, takes the bulk
	// class to its own bucket. nil shared = unlimited tenant.
	shared *Bucket
	bulk   *Bucket

	admitted    [numClasses]atomic.Uint64
	rateLimited atomic.Uint64
	overloaded  atomic.Uint64
	errors      atomic.Uint64

	// latency is the per-tenant request-latency histogram
	// (yala_tenant_request_seconds); nil until the gate is given an obs
	// registry.
	latency atomic.Pointer[obs.Histogram]
}

// Limited reports whether the tenant has any rate limit configured.
func (t *Tenant) Limited() bool { return t.shared != nil || t.bulk != nil }

// bucketFor picks the bucket charged for one request of class c; nil
// means the class is unlimited for this tenant.
func (t *Tenant) bucketFor(c Class) *Bucket {
	if c == ClassBulk && t.bulk != nil {
		return t.bulk
	}
	return t.shared
}

// Requests returns the total admitted request count.
func (t *Tenant) Requests() uint64 {
	return t.admitted[ClassInteractive].Load() + t.admitted[ClassBulk].Load()
}

// Shed returns the total 429 count (rate-limited plus overload-shed).
func (t *Tenant) Shed() uint64 {
	return t.rateLimited.Load() + t.overloaded.Load()
}

// Snapshot is one tenant's accounting row, the wire shape behind the
// per-tenant rows in /v2/gateway/stats.
type Snapshot struct {
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

// Snapshot reads the tenant's counters.
func (t *Tenant) Snapshot() Snapshot {
	return Snapshot{
		Tenant:      t.name,
		Limited:     t.Limited(),
		Requests:    t.Requests(),
		Interactive: t.admitted[ClassInteractive].Load(),
		Bulk:        t.admitted[ClassBulk].Load(),
		Shed:        t.Shed(),
		RateLimited: t.rateLimited.Load(),
		Overloaded:  t.overloaded.Load(),
		Errors:      t.errors.Load(),
	}
}

// newTenant builds a live tenant from its spec.
func newTenant(sp Spec) *Tenant {
	t := &Tenant{name: sp.Name, key: sp.Key}
	if sp.RPS > 0 {
		burst := sp.Burst
		if burst <= 0 {
			burst = 2 * sp.RPS
		}
		t.shared = NewBucket(sp.RPS, burst)
	}
	if sp.BulkRPS > 0 {
		burst := sp.BulkBurst
		if burst <= 0 {
			burst = 2 * sp.BulkRPS
		}
		t.bulk = NewBucket(sp.BulkRPS, burst)
	}
	return t
}

// Registry resolves API keys to tenants. It is immutable after
// construction — reload semantics are a restart, like the model
// directory's — so lookups are lock-free map reads.
type Registry struct {
	byKey   map[string]*Tenant
	anon    *Tenant   // nil when the file sets RequireKey
	ordered []*Tenant // stable iteration order for stats/metrics
}

// AnonymousName is the display name of the keyless default tenant.
const AnonymousName = "anonymous"

// NewRegistry builds a registry from a parsed file. Tenant names and
// keys must be non-empty and unique; the anonymous spec, when present,
// must not carry a key.
func NewRegistry(f File) (*Registry, error) {
	r := &Registry{byKey: make(map[string]*Tenant, len(f.Tenants))}
	names := map[string]bool{}
	for i, sp := range f.Tenants {
		if sp.Name == "" {
			return nil, fmt.Errorf("tenant: tenants[%d] has no name", i)
		}
		if sp.Key == "" {
			return nil, fmt.Errorf("tenant: tenant %q has no key", sp.Name)
		}
		if sp.RPS < 0 || sp.Burst < 0 || sp.BulkRPS < 0 || sp.BulkBurst < 0 {
			return nil, fmt.Errorf("tenant: tenant %q has a negative rate or burst", sp.Name)
		}
		if names[sp.Name] {
			return nil, fmt.Errorf("tenant: duplicate tenant name %q", sp.Name)
		}
		names[sp.Name] = true
		if _, dup := r.byKey[sp.Key]; dup {
			return nil, fmt.Errorf("tenant: tenant %q reuses another tenant's key", sp.Name)
		}
		t := newTenant(sp)
		r.byKey[sp.Key] = t
		r.ordered = append(r.ordered, t)
	}
	if !f.RequireKey {
		anonSpec := Spec{Name: AnonymousName}
		if f.Anonymous != nil {
			if f.Anonymous.Key != "" {
				return nil, fmt.Errorf("tenant: the anonymous tenant cannot have a key")
			}
			anonSpec = *f.Anonymous
			if anonSpec.Name == "" {
				anonSpec.Name = AnonymousName
			}
			if names[anonSpec.Name] {
				return nil, fmt.Errorf("tenant: duplicate tenant name %q", anonSpec.Name)
			}
		}
		r.anon = newTenant(anonSpec)
		r.ordered = append(r.ordered, r.anon)
	}
	sort.Slice(r.ordered, func(i, j int) bool { return r.ordered[i].name < r.ordered[j].name })
	return r, nil
}

// AnonymousOnly is the default registry an unconfigured server runs
// with: a single unlimited anonymous tenant, preserving pre-tenancy
// behavior exactly (accounting still happens, nothing is ever shed by
// rate).
func AnonymousOnly() *Registry {
	r, err := NewRegistry(File{})
	if err != nil {
		panic(err) // the empty file is statically valid
	}
	return r
}

// Parse decodes a -tenants file strictly (unknown fields are config
// typos, not extensions) and builds the registry.
func Parse(data []byte) (*Registry, error) {
	var f File
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("tenant: decoding tenants file: %w", err)
	}
	return NewRegistry(f)
}

// Load reads and parses a -tenants JSON file.
func Load(path string) (*Registry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	return Parse(data)
}

// Lookup resolves an API key: the empty key is the anonymous tenant
// (nil, false when the registry requires keys), an unknown key is
// (nil, false).
func (r *Registry) Lookup(key string) (*Tenant, bool) {
	if key == "" {
		if r.anon == nil {
			return nil, false
		}
		return r.anon, true
	}
	t, ok := r.byKey[key]
	return t, ok
}

// Tenants lists every tenant in stable name order.
func (r *Registry) Tenants() []*Tenant { return r.ordered }
