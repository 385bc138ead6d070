package testbed

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nf"
	"repro/internal/nfbench"
	"repro/internal/nicsim"
	"repro/internal/traffic"
)

func TestWorkloadCaching(t *testing.T) {
	tb := New(nicsim.BlueField2(), 1)
	w1, err := tb.Workload("FlowStats", traffic.Default)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := tb.Workload("FlowStats", traffic.Default)
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 {
		t.Fatal("workload not cached")
	}
	w3, err := tb.Workload("FlowStats", traffic.Default.With(traffic.AttrFlows, 4000))
	if err != nil {
		t.Fatal(err)
	}
	if w3 == w1 {
		t.Fatal("distinct profiles shared a workload")
	}
}

// TestWorkloadConcurrent: eight goroutines — two of them through
// WarmWorkloads — ask one testbed for overlapping keys in different
// orders. Each key is measured once, every caller gets the same
// workload, and each footprint equals a serial testbed's bit for bit.
func TestWorkloadConcurrent(t *testing.T) {
	names := []string{"FlowStats", "ACL", "NIDS", "IPRouter"}
	profs := []traffic.Profile{
		traffic.Default,
		{Flows: 1000, PktSize: 64, MTBR: 0},
		{Flows: 50000, PktSize: 256, MTBR: 600},
	}
	type key struct {
		name string
		prof traffic.Profile
	}
	var keys []key
	for _, name := range names {
		for _, prof := range profs {
			keys = append(keys, key{name, prof})
		}
	}

	var mu sync.Mutex
	measured := map[key]int{}
	defer func(orig func(nf.NF, traffic.Profile, uint64) (*nicsim.Workload, error)) { nfMeasure = orig }(nfMeasure)
	nfMeasure = func(n nf.NF, prof traffic.Profile, seed uint64) (*nicsim.Workload, error) {
		mu.Lock()
		measured[key{n.Name(), prof}]++
		mu.Unlock()
		return nf.Measure(n, prof, seed)
	}

	tb := New(nicsim.BlueField2(), 1)
	const callers = 8
	got := make([][]*nicsim.Workload, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%4 == 0 {
				if err := tb.WarmWorkloads(context.Background(), names, profs); err != nil {
					t.Error(err)
				}
			}
			got[g] = make([]*nicsim.Workload, len(keys))
			for i := range keys {
				k := keys[(i+g*5)%len(keys)] // a different order per caller
				w, err := tb.Workload(k.name, k.prof)
				if err != nil {
					t.Error(err)
					return
				}
				got[g][(i+g*5)%len(keys)] = w
			}
			if _, err := tb.Workload("Nope", traffic.Default); err == nil {
				t.Error("unknown NF measured")
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	serial := New(nicsim.BlueField2(), 1)
	for i, k := range keys {
		if n := measured[k]; n != 1 {
			t.Errorf("%s %v measured %d times, want once", k.name, k.prof, n)
		}
		for g := 1; g < callers; g++ {
			if got[g][i] != got[0][i] {
				t.Errorf("%s %v: callers 0 and %d got different workloads", k.name, k.prof, g)
			}
		}
		want, err := serial.Workload(k.name, k.prof)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := footprintRow(k.name, k.prof, got[0][i]), footprintRow(k.name, k.prof, want); g != w {
			t.Errorf("concurrent footprint differs from serial:\n got %s\nwant %s", g, w)
		}
	}
}

// TestWarmWorkloadsCanceled: cancelling a batch stops handing out keys,
// and WarmWorkloads returns ctx.Err() only once the measurements in
// flight have finished, so no worker outlives the call.
func TestWarmWorkloadsCanceled(t *testing.T) {
	started, release := make(chan struct{}, 8), make(chan struct{})
	var inFlight, total atomic.Int64
	defer func(orig func(nf.NF, traffic.Profile, uint64) (*nicsim.Workload, error)) { nfMeasure = orig }(nfMeasure)
	nfMeasure = func(n nf.NF, prof traffic.Profile, seed uint64) (*nicsim.Workload, error) {
		inFlight.Add(1)
		defer inFlight.Add(-1)
		total.Add(1)
		started <- struct{}{}
		<-release
		return nf.Measure(n, prof, seed)
	}
	names := []string{"ACL", "NAT", "FlowStats", "NIDS"}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- New(nicsim.BlueField2(), 1).WarmWorkloads(ctx, names, []traffic.Profile{traffic.Default})
	}()
	workers := min(runtime.GOMAXPROCS(0), len(names))
	for i := 0; i < workers; i++ {
		<-started
	}
	cancel()
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("WarmWorkloads returned %v, want context.Canceled", err)
	}
	if n := inFlight.Load(); n != 0 {
		t.Fatalf("%d measurements still running after WarmWorkloads returned", n)
	}
	if n := total.Load(); n != int64(workers) {
		t.Fatalf("%d keys measured, want only the %d in flight at cancel", n, workers)
	}
}

// TestWorkloadErrorCached: a failed measurement is cached with its key,
// so every later caller gets the same error without measuring again.
func TestWorkloadErrorCached(t *testing.T) {
	var calls atomic.Int64
	defer func(orig func(nf.NF, traffic.Profile, uint64) (*nicsim.Workload, error)) { nfMeasure = orig }(nfMeasure)
	nfMeasure = func(nf.NF, traffic.Profile, uint64) (*nicsim.Workload, error) {
		calls.Add(1)
		return nil, errors.New("rig down")
	}
	tb := New(nicsim.BlueField2(), 1)
	if err := tb.WarmWorkloads(context.Background(), []string{"ACL"}, []traffic.Profile{traffic.Default}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := tb.Workload("ACL", traffic.Default); err == nil || err.Error() != "rig down" {
			t.Fatalf("call %d: error %v, want the cached measurement error", i, err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("failed key measured %d times, want once", n)
	}
}

// waitingOnFootprint reports whether some goroutine is parked in
// Workload on another caller's measurement.
func waitingOnFootprint() bool {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		lines := strings.SplitN(g, "\n", 3)
		if len(lines) >= 2 && strings.Contains(lines[0], "[chan receive") &&
			strings.HasPrefix(lines[1], "repro/internal/testbed.(*Testbed).Workload(") {
			return true
		}
	}
	return false
}

// TestWorkloadPanic: a measurement that panics releases the callers
// waiting on it with an error, panics in the caller that measured, and
// leaves the key uncached, so the next caller measures it again.
func TestWorkloadPanic(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	defer func(orig func(nf.NF, traffic.Profile, uint64) (*nicsim.Workload, error)) { nfMeasure = orig }(nfMeasure)
	nfMeasure = func(n nf.NF, prof traffic.Profile, seed uint64) (*nicsim.Workload, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-release
			panic("measurement blew up")
		}
		return nf.Measure(n, prof, seed)
	}
	tb := New(nicsim.BlueField2(), 1)

	measurer := make(chan any, 1)
	go func() { measurer <- panicOf(func() { tb.Workload("ACL", traffic.Default) }) }()
	<-started
	waiter := make(chan error, 1)
	go func() {
		_, err := tb.Workload("ACL", traffic.Default)
		waiter <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); !waitingOnFootprint(); {
		if time.Now().After(deadline) {
			t.Fatal("second caller never waited on the first caller's measurement")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	if r := <-measurer; r != "measurement blew up" {
		t.Fatalf("measuring caller panicked with %v, want the measurement's panic", r)
	}
	select {
	case err := <-waiter:
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("waiting caller got %v, want a panicked-measurement error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiting caller still blocked after the measurement panicked")
	}
	if w, err := tb.Workload("ACL", traffic.Default); err != nil || w == nil {
		t.Fatalf("re-measure after the panic: %v, %v", w, err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d measurements, want the panicking one and one re-measure", n)
	}
}

// TestWarmWorkloadsPanic: a key whose measurement panics inside the batch
// does not take the batch down; it stays uncached and the caller's own
// Workload call meets the panic on the caller's goroutine.
func TestWarmWorkloadsPanic(t *testing.T) {
	defer func(orig func(nf.NF, traffic.Profile, uint64) (*nicsim.Workload, error)) { nfMeasure = orig }(nfMeasure)
	nfMeasure = func(n nf.NF, prof traffic.Profile, seed uint64) (*nicsim.Workload, error) {
		if n.Name() == "NAT" {
			panic("measurement blew up")
		}
		return nf.Measure(n, prof, seed)
	}
	tb := New(nicsim.BlueField2(), 1)
	if err := tb.WarmWorkloads(context.Background(), []string{"ACL", "NAT", "FlowStats"}, []traffic.Profile{traffic.Default}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Workload("ACL", traffic.Default); err != nil {
		t.Fatal(err)
	}
	if r := panicOf(func() { tb.Workload("NAT", traffic.Default) }); r != "measurement blew up" {
		t.Fatalf("Workload after the batch panicked with %v, want the measurement's panic", r)
	}
}

// panicOf runs f and returns what it panicked with, or nil.
func panicOf(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

func TestWorkloadUnknownNF(t *testing.T) {
	tb := New(nicsim.BlueField2(), 1)
	if _, err := tb.Workload("Nope", traffic.Default); err == nil {
		t.Fatal("expected error")
	}
}

func TestWorkloadDeterministicAcrossOrder(t *testing.T) {
	a := New(nicsim.BlueField2(), 7)
	b := New(nicsim.BlueField2(), 7)
	// Different measurement order, same footprints.
	if _, err := a.Workload("NAT", traffic.Default); err != nil {
		t.Fatal(err)
	}
	wa, err := a.Workload("FlowStats", traffic.Default)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := b.Workload("FlowStats", traffic.Default)
	if err != nil {
		t.Fatal(err)
	}
	if wa.CPUSecPerPkt != wb.CPUSecPerPkt || wa.WSSBytes != wb.WSSBytes {
		t.Fatalf("order-dependent footprints: %+v vs %+v", wa, wb)
	}
}

func TestWithMemBenchReducesThroughput(t *testing.T) {
	tb := New(nicsim.BlueField2(), 2)
	w, err := tb.Workload("FlowStats", traffic.Default)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := tb.RunSolo(w)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tb.WithMemBench(w, 200e6, 12<<20)
	if err != nil {
		t.Fatal(err)
	}
	if m.Throughput >= solo.Throughput {
		t.Fatal("mem-bench did not reduce throughput")
	}
}

func TestWithRegexBenchReturnsBoth(t *testing.T) {
	tb := New(nicsim.BlueField2(), 3)
	w, err := tb.Workload("NIDS", traffic.Default)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := tb.WithRegexBench(w, 1e6, 1000, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[1].Name != "regex-bench" {
		t.Fatalf("unexpected measurements: %d", len(ms))
	}
}

func TestRunDistinctSeedsVary(t *testing.T) {
	tb := New(nicsim.BlueField2(), 4)
	w := nfbench.MemBench(100e6, 4<<20)
	a, err := tb.RunSolo(w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tb.RunSolo(w)
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput == b.Throughput {
		t.Fatal("repeated measurements identical — no run-to-run noise")
	}
}

func TestMemContentionString(t *testing.T) {
	s := MemContention{CAR: 100e6, WSS: 8 << 20}.String()
	if s != "car=100Mref/s wss=8.0MB" {
		t.Fatalf("String() = %q", s)
	}
}
