package obs

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero Counter is
// usable; registry-created counters are shared by series identity.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load reads the current count. The method name matches
// atomic.Uint64's so a Counter can drop into code that held one.
func (c *Counter) Load() uint64 { return c.v.Load() }

// metricKind discriminates what one registered series holds.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindCounterFunc
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGaugeFunc:
		return "gauge"
	}
	return "histogram"
}

// series is one registered (family, label set) metric.
type series struct {
	family string
	labels string // rendered, key-sorted: `verb="predict"`, "" when unlabeled
	kind   metricKind

	counter *Counter
	fn      func() float64
	hist    *Histogram
}

// registryShards is the shard count; a power of two so the key hash
// maps to a shard with a mask. Registration and exposition are the only
// lock takers — observations go through pointers — so sharding exists
// for callers that look series up on a warm-ish path (the scheduler's
// per-policy lookups) instead of caching the pointer.
const registryShards = 8

type registryShard struct {
	mu     sync.Mutex
	series map[string]*series
}

// Registry holds a process's (or subsystem's) metric series and renders
// them in Prometheus text exposition format. Get-or-create accessors
// are safe for concurrent use; registering the same (name, labels) with
// a different metric kind panics — that is a programming error, not a
// runtime condition.
type Registry struct {
	shards [registryShards]registryShard
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	for i := range r.shards {
		r.shards[i].series = map[string]*series{}
	}
	return r
}

// renderLabels renders alternating key, value label pairs canonically:
// sorted by key, values escaped for the exposition format. Odd trailing
// arguments are a programming error.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the exposition format.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// get returns the series for (family, labels), creating it with mk on
// first use. A kind clash with an existing series panics.
func (r *Registry) get(family string, labels []string, kind metricKind, mk func() *series) *series {
	rendered := renderLabels(labels)
	key := family + "\x00" + rendered
	h := fnv.New32a()
	h.Write([]byte(key))
	sh := &r.shards[h.Sum32()&(registryShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s, ok := sh.series[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: %s{%s} re-registered as %s (was %s)",
				family, rendered, kind.promType(), s.kind.promType()))
		}
		return s
	}
	s := mk()
	s.family, s.labels, s.kind = family, rendered, kind
	sh.series[key] = s
	return s
}

// Counter returns the counter for (name, labels), creating it on first
// use. Labels are alternating key, value pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	s := r.get(name, labels, kindCounter, func() *series {
		return &series{counter: &Counter{}}
	})
	return s.counter
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — for counters another subsystem already maintains
// (cache hits, replica request totals) that should not be double
// counted into a second atomic.
func (r *Registry) CounterFunc(name string, fn func() uint64, labels ...string) {
	s := r.get(name, labels, kindCounterFunc, func() *series { return &series{} })
	s.fn = func() float64 { return float64(fn()) }
}

// GaugeFunc registers a gauge read from fn at exposition time (queue
// depth, uptime, entry counts).
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	s := r.get(name, labels, kindGaugeFunc, func() *series { return &series{} })
	s.fn = fn
}

// Histogram returns the histogram for (name, labels), creating it with
// the given bucket upper bounds on first use (nil selects
// LatencyBuckets). Subsequent calls return the existing histogram
// regardless of the buckets argument.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	s := r.get(name, labels, kindHistogram, func() *series {
		return &series{hist: NewHistogram(buckets)}
	})
	return s.hist
}

// snapshot collects every registered series sorted by (family, labels)
// so exposition order is deterministic.
func (r *Registry) snapshot() []*series {
	var all []*series
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for _, s := range sh.series {
			all = append(all, s)
		}
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].family != all[j].family {
			return all[i].family < all[j].family
		}
		return all[i].labels < all[j].labels
	})
	return all
}

// formatValue renders a sample value: integral values print without an
// exponent or trailing zeros, everything else in Go's shortest 'g'
// form.
func formatValue(v float64) string {
	if v == float64(uint64(v)) && v >= 0 && v < 1e15 {
		return strconv.FormatUint(uint64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
