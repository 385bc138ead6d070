package serve

import "sync"

// FlightGroup memoizes successful results per key with duplicate-call
// suppression: the first caller for a key computes while concurrent
// callers wait on the same attempt; failed attempts are evicted so a
// later call retries. It is the one implementation of the idiom the
// model registry, the solo-measurement memo and the gateway's request
// coalescing all need — exported so other packages generalize over it
// instead of growing a second singleflight.
type FlightGroup[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*flight[V]
}

// flight is one load attempt; ready closes when it resolves.
type flight[V any] struct {
	ready chan struct{}
	val   V
	err   error
}

// Do returns the memoized value for key, computing it with fn on first
// use. A positive maxEntries bounds the memo: resolved entries are
// evicted (oldest-iteration-order) to stay under it — only correct when
// fn is deterministic, so eviction merely costs recomputation.
func (g *FlightGroup[K, V]) Do(key K, maxEntries int, fn func() (V, error)) (V, error) {
	g.mu.Lock()
	if g.entries == nil {
		g.entries = map[K]*flight[V]{}
	}
	e, ok := g.entries[key]
	if !ok {
		if maxEntries > 0 && len(g.entries) >= maxEntries {
			g.evictResolvedLocked(maxEntries)
		}
		e = &flight[V]{ready: make(chan struct{})}
		g.entries[key] = e
	}
	g.mu.Unlock()
	if !ok {
		e.val, e.err = fn()
		if e.err != nil {
			g.mu.Lock()
			if g.entries[key] == e {
				delete(g.entries, key)
			}
			g.mu.Unlock()
		}
		close(e.ready)
	}
	<-e.ready
	return e.val, e.err
}

// Coalesce is the do-and-forget mode: concurrent callers for one key
// share a single computation, but the result is dropped the moment it
// resolves — the next call recomputes. It returns shared=true for
// callers that rode an already-in-flight attempt (they never ran fn).
// This is request coalescing, not memoization: correct for any
// idempotent fn, because two calls only ever share a result when they
// overlap in time.
func (g *FlightGroup[K, V]) Coalesce(key K, fn func() (V, error)) (val V, shared bool, err error) {
	g.mu.Lock()
	if g.entries == nil {
		g.entries = map[K]*flight[V]{}
	}
	e, ok := g.entries[key]
	if !ok {
		e = &flight[V]{ready: make(chan struct{})}
		g.entries[key] = e
	}
	g.mu.Unlock()
	if !ok {
		e.val, e.err = fn()
		// Leader drops the entry before resolving: success or failure,
		// nothing outlives the flight. A Do-mode entry for the same key
		// is left alone (distinguished by pointer identity).
		g.mu.Lock()
		if g.entries[key] == e {
			delete(g.entries, key)
		}
		g.mu.Unlock()
		close(e.ready)
		return e.val, false, e.err
	}
	<-e.ready
	return e.val, true, e.err
}

// Put installs a value for key as an already-resolved entry, replacing
// whatever was there. Waiters on an in-flight attempt for the same key
// still receive that attempt's result (their flight resolves
// independently); only later calls observe the installed value. This is
// the promotion path: a model trained out-of-band replaces the served
// one atomically, with no caller ever seeing an empty slot.
func (g *FlightGroup[K, V]) Put(key K, v V) {
	g.mu.Lock()
	if g.entries == nil {
		g.entries = map[K]*flight[V]{}
	}
	e := &flight[V]{ready: make(chan struct{}), val: v}
	close(e.ready)
	g.entries[key] = e
	g.mu.Unlock()
}

// evictResolvedLocked drops resolved entries until under max; in-flight
// attempts are never dropped. Caller holds g.mu.
func (g *FlightGroup[K, V]) evictResolvedLocked(max int) {
	for k, e := range g.entries {
		select {
		case <-e.ready:
			delete(g.entries, k)
		default:
		}
		if len(g.entries) < max {
			return
		}
	}
}

// ForgetMatching drops every key the predicate selects so the next Do
// recomputes — operator reloads, which span derived keys (e.g. one
// NF's models across every hardware class).
func (g *FlightGroup[K, V]) ForgetMatching(match func(K) bool) {
	g.mu.Lock()
	for k := range g.entries {
		if match(k) {
			delete(g.entries, k)
		}
	}
	g.mu.Unlock()
}

// Resolved lists keys whose attempts completed successfully.
func (g *FlightGroup[K, V]) Resolved() []K {
	g.mu.Lock()
	defer g.mu.Unlock()
	keys := make([]K, 0, len(g.entries))
	for k, e := range g.entries {
		select {
		case <-e.ready:
			if e.err == nil {
				keys = append(keys, k)
			}
		default:
		}
	}
	return keys
}
