// Package flight is the module's one implementation of duplicate-call
// suppression: concurrent callers asking for one key share a single
// computation instead of each running it. A Group either memoizes what
// that computation returns (Do, Join) or only shares it among the
// callers it overlaps (Coalesce).
//
// The model registry, the serving layer's solo-measurement memo, the
// testbed's footprint cache and the gateway's request coalescing are all
// Groups; a package that needs the idiom uses this one rather than
// growing a second.
//
// A computation that panics releases everyone waiting on it with
// ErrPanicked, leaves its key uncached so the next caller computes it
// again, and keeps panicking up the goroutine that ran it.
package flight

import (
	"errors"
	"sync"
)

// ErrPanicked is the error callers waiting on a computation get when
// that computation panicked on another goroutine.
var ErrPanicked = errors.New("flight: computation panicked")

// Group suppresses duplicate computations per key. The zero Group is
// ready to use.
type Group[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*Call[V]
}

// Call is one attempt at a key's value. Done closes when it resolves;
// Result is its outcome from then on.
type Call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Done is closed once the attempt has resolved.
func (c *Call[V]) Done() <-chan struct{} { return c.done }

// Result returns the attempt's value and error. Call it after Done is
// closed.
func (c *Call[V]) Result() (V, error) { return c.val, c.err }

// Do returns the memoized value for key, computing it with fn on first
// use. A positive maxEntries bounds the memo: resolved entries are
// evicted (in map iteration order) to stay under it — only correct when
// fn is deterministic, so eviction merely costs recomputation. A failed
// attempt is not memoized: a later call retries it.
func (g *Group[K, V]) Do(key K, maxEntries int, fn func() (V, error)) (V, error) {
	c := g.Join(key, maxEntries, fn)
	<-c.done
	return c.val, c.err
}

// Join is Do that leaves the wait to the caller: it returns key's
// attempt — the memoized one, the one in flight, or a new one that it
// runs with fn on the calling goroutine before returning — so a caller
// can wait on Done in its own frame or alongside other events.
func (g *Group[K, V]) Join(key K, maxEntries int, fn func() (V, error)) *Call[V] {
	c, leader := g.join(key, maxEntries)
	if leader {
		g.run(key, c, true, fn)
	}
	return c
}

// Coalesce is the do-and-forget mode: concurrent callers for one key
// share a single computation, but the result is dropped the moment it
// resolves — the next call recomputes. It returns shared=true for
// callers that rode an already-in-flight attempt (they never ran fn).
// This is request coalescing, not memoization: correct for any
// idempotent fn, because two calls only ever share a result when they
// overlap in time.
func (g *Group[K, V]) Coalesce(key K, fn func() (V, error)) (val V, shared bool, err error) {
	c, leader := g.join(key, 0)
	if leader {
		g.run(key, c, false, fn)
	}
	<-c.done
	return c.val, !leader, c.err
}

// join returns key's entry, creating an unresolved one when there is
// none; leader reports that the caller created it and must run it.
func (g *Group[K, V]) join(key K, maxEntries int) (c *Call[V], leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.entries[key]; ok {
		return c, false
	}
	if g.entries == nil {
		g.entries = map[K]*Call[V]{}
	}
	if maxEntries > 0 && len(g.entries) >= maxEntries {
		g.evictResolvedLocked(maxEntries)
	}
	c = &Call[V]{done: make(chan struct{})}
	g.entries[key] = c
	return c, true
}

// run resolves c with fn. The entry is dropped before its waiters are
// released unless keep holds and fn succeeded. A panic in fn resolves c
// with ErrPanicked and is not recovered: it goes on up the caller's
// stack once the waiters are free.
func (g *Group[K, V]) run(key K, c *Call[V], keep bool, fn func() (V, error)) {
	returned := false
	defer func() {
		if !returned {
			c.err = ErrPanicked
		}
		if !keep || c.err != nil {
			g.mu.Lock()
			// Pointer identity: a Put or a newer attempt that replaced
			// this entry meanwhile stays.
			if g.entries[key] == c {
				delete(g.entries, key)
			}
			g.mu.Unlock()
		}
		close(c.done)
	}()
	c.val, c.err = fn()
	returned = true
}

// Put installs a value for key as an already-resolved entry, replacing
// whatever was there. Waiters on an in-flight attempt for the same key
// still receive that attempt's result (their attempt resolves
// independently); only later calls observe the installed value. This is
// the promotion path: a model trained out-of-band replaces the served
// one atomically, with no caller ever seeing an empty slot.
func (g *Group[K, V]) Put(key K, v V) {
	c := &Call[V]{done: make(chan struct{}), val: v}
	close(c.done)
	g.mu.Lock()
	if g.entries == nil {
		g.entries = map[K]*Call[V]{}
	}
	g.entries[key] = c
	g.mu.Unlock()
}

// evictResolvedLocked drops resolved entries until under max; in-flight
// attempts are never dropped. Caller holds g.mu.
func (g *Group[K, V]) evictResolvedLocked(max int) {
	for k, c := range g.entries {
		select {
		case <-c.done:
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
// NF's models across every hardware class). Callers already waiting on
// a dropped attempt still get its result.
func (g *Group[K, V]) ForgetMatching(match func(K) bool) {
	g.mu.Lock()
	for k := range g.entries {
		if match(k) {
			delete(g.entries, k)
		}
	}
	g.mu.Unlock()
}

// Resolved lists keys whose attempts completed successfully.
func (g *Group[K, V]) Resolved() []K {
	g.mu.Lock()
	defer g.mu.Unlock()
	keys := make([]K, 0, len(g.entries))
	for k, c := range g.entries {
		select {
		case <-c.done:
			if c.err == nil {
				keys = append(keys, k)
			}
		default:
		}
	}
	return keys
}
