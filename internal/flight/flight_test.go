package flight

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// hold runs start on its own goroutine and returns once the fn it was
// handed is running; closing release lets fn return v, and finished
// delivers what start returned.
func hold(t *testing.T, start func(fn func() (int, error)) (int, error), v int) (release chan struct{}, finished chan int) {
	t.Helper()
	running, release, finished := make(chan struct{}), make(chan struct{}), make(chan int, 1)
	go func() {
		got, _ := start(func() (int, error) {
			close(running)
			<-release
			return v, nil
		})
		finished <- got
	}()
	<-running
	return release, finished
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
	}
}

func TestDoMemoizesAndRetriesFailures(t *testing.T) {
	var g Group[string, int]
	calls := 0
	fail := errors.New("down")
	fn := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, fail
		}
		return calls, nil
	}
	if _, err := g.Do("k", 0, fn); err != fail {
		t.Fatalf("first Do: %v, want the attempt's error", err)
	}
	if v, err := g.Do("k", 0, fn); err != nil || v != 2 {
		t.Fatalf("second Do: %d, %v; want the failed attempt retried", v, err)
	}
	if v, _ := g.Do("k", 0, fn); v != 2 || calls != 2 {
		t.Fatalf("third Do: %d after %d calls; want the memoized 2", v, calls)
	}
}

// TestDoBoundEvictsOnlyResolved: a bounded Do makes room by evicting
// resolved entries, never an attempt still in flight — its waiters and
// its result stay one.
func TestDoBoundEvictsOnlyResolved(t *testing.T) {
	var g Group[int, int]
	release, finished := hold(t, func(fn func() (int, error)) (int, error) { return g.Do(0, 2, fn) }, 100)
	for k := 1; k <= 4; k++ {
		if v, err := g.Do(k, 2, func() (int, error) { return k, nil }); err != nil || v != k {
			t.Fatalf("Do(%d): %d, %v", k, v, err)
		}
		if n := len(g.entries); n > 2 {
			t.Fatalf("after Do(%d): %d entries, bound 2", k, n)
		}
	}
	if _, ok := g.entries[0]; !ok {
		t.Fatal("bounded Do evicted the in-flight attempt")
	}
	joined := make(chan int, 1)
	go func() {
		v, _ := g.Do(0, 2, func() (int, error) { return -1, nil })
		joined <- v
	}()
	close(release)
	if v := <-finished; v != 100 {
		t.Fatalf("leader got %d", v)
	}
	if v := <-joined; v != 100 {
		t.Fatalf("a caller joining the in-flight attempt got %d, want its result 100", v)
	}
}

// TestPutDuringFlight: Put replaces a key's value at once, while callers
// already waiting on an attempt for the key get that attempt's result.
func TestPutDuringFlight(t *testing.T) {
	var g Group[string, int]
	release, finished := hold(t, func(fn func() (int, error)) (int, error) { return g.Do("k", 0, fn) }, 1)
	waiter := make(chan int, 1)
	go func() {
		v, _ := g.Do("k", 0, func() (int, error) { return -1, nil })
		waiter <- v
	}()
	waitFor(t, func() bool { return parked("Do") == 1 })
	g.Put("k", 2)
	if v, _ := g.Do("k", 0, func() (int, error) { return -1, nil }); v != 2 {
		t.Fatalf("Do after Put: %d, want the installed 2", v)
	}
	close(release)
	if a, b := <-finished, <-waiter; a != 1 || b != 1 {
		t.Fatalf("leader and waiter got %d and %d, want the attempt's 1", a, b)
	}
	if v, _ := g.Do("k", 0, func() (int, error) { return -1, nil }); v != 2 {
		t.Fatalf("the resolving attempt replaced the installed value: got %d", v)
	}
}

func TestForgetMatchingAndResolved(t *testing.T) {
	var g Group[string, int]
	for _, k := range []string{"a1", "a2", "b1"} {
		g.Do(k, 0, func() (int, error) { return len(k), nil })
	}
	g.Do("bad", 0, func() (int, error) { return 0, errors.New("no") })
	release, _ := hold(t, func(fn func() (int, error)) (int, error) { return g.Do("busy", 0, fn) }, 1)
	defer close(release)

	got := g.Resolved()
	slices.Sort(got)
	if want := []string{"a1", "a2", "b1"}; !slices.Equal(got, want) {
		t.Fatalf("Resolved = %v, want %v (no failed or in-flight keys)", got, want)
	}
	g.ForgetMatching(func(k string) bool { return k[0] == 'a' })
	got = g.Resolved()
	if !slices.Equal(got, []string{"b1"}) {
		t.Fatalf("Resolved after forgetting a* = %v", got)
	}
	calls := 0
	g.Do("a1", 0, func() (int, error) { calls++; return 0, nil })
	g.Do("b1", 0, func() (int, error) { calls++; return 0, nil })
	if calls != 1 {
		t.Fatalf("%d recomputations, want only the forgotten key's", calls)
	}
}

func TestCoalesceShares(t *testing.T) {
	var g Group[string, int]
	release, finished := hold(t, func(fn func() (int, error)) (int, error) {
		v, _, err := g.Coalesce("k", fn)
		return v, err
	}, 7)
	type res struct {
		v      int
		shared bool
	}
	follower := make(chan res, 1)
	go func() {
		v, shared, _ := g.Coalesce("k", func() (int, error) { return -1, nil })
		follower <- res{v, shared}
	}()
	waitFor(t, func() bool { return parked("Coalesce") == 1 })
	close(release)
	if v := <-finished; v != 7 {
		t.Fatalf("leader got %d", v)
	}
	if f := <-follower; !f.shared || f.v != 7 {
		t.Fatalf("follower got %d (shared %v), want the leader's 7, shared", f.v, f.shared)
	}
	if v, shared, _ := g.Coalesce("k", func() (int, error) { return 8, nil }); shared || v != 8 {
		t.Fatalf("Coalesce after resolution: %d (shared %v), want a fresh 8", v, shared)
	}
}

// TestPanicReleasesWaiters: for Do and Coalesce alike, a computation
// that panics gives every waiter ErrPanicked, leaves the key uncached,
// and goes on panicking on the goroutine that ran it.
func TestPanicReleasesWaiters(t *testing.T) {
	for _, mode := range []string{"Do", "Coalesce"} {
		t.Run(mode, func(t *testing.T) {
			var g Group[string, int]
			call := func(fn func() (int, error)) (int, error) {
				if mode == "Do" {
					return g.Do("k", 0, fn)
				}
				v, _, err := g.Coalesce("k", fn)
				return v, err
			}
			running, release := make(chan struct{}), make(chan struct{})
			recovered := make(chan any, 1)
			go func() {
				defer func() { recovered <- recover() }()
				call(func() (int, error) {
					close(running)
					<-release
					panic("boom")
				})
			}()
			<-running
			const waiters = 3
			errs := make(chan error, waiters)
			for range waiters {
				go func() {
					_, err := call(func() (int, error) { return 1, nil })
					errs <- err
				}()
			}
			waitFor(t, func() bool { return parked(mode) == waiters })
			close(release)
			if r := <-recovered; r != "boom" {
				t.Fatalf("computing goroutine panicked with %v, want the computation's panic", r)
			}
			for range waiters {
				if err := <-errs; !errors.Is(err, ErrPanicked) {
					t.Fatalf("waiter got %v, want ErrPanicked", err)
				}
			}
			if v, err := call(func() (int, error) { return 5, nil }); err != nil || v != 5 {
				t.Fatalf("%s after the panic: %d, %v; want a fresh computation", mode, v, err)
			}
		})
	}
}

// parked counts goroutines blocked inside Group.<method> on another
// caller's attempt.
func parked(method string) int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		lines := strings.SplitN(g, "\n", 3)
		if len(lines) >= 2 && strings.Contains(lines[0], "[chan receive") &&
			strings.HasPrefix(lines[1], "repro/internal/flight.(*Group[...])."+method+"(") {
			n++
		}
	}
	return n
}
