package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []float64
	for _, tm := range []float64{5, 1, 3, 2, 4} {
		tm := tm
		e.At(tm, func() { got = append(got, tm) })
	}
	e.Run()
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestEngineSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1.0, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", got)
		}
	}
}

func TestEngineAfterUsesCurrentTime(t *testing.T) {
	e := NewEngine()
	var at float64
	e.At(2, func() {
		e.After(3, func() { at = e.Now() })
	})
	e.Run()
	if at != 5 {
		t.Fatalf("After fired at %v, want 5", at)
	}
}

func TestEnginePastSchedulingClamps(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		e.At(1, func() {
			if e.Now() != 10 {
				t.Errorf("past event fired at %v, want clamped to 10", e.Now())
			}
		})
	})
	e.Run()
	if e.Now() != 10 {
		t.Fatalf("clock at %v, want 10", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	for i := 1; i <= 10; i++ {
		e.At(float64(i), func() { fired++ })
	}
	e.RunUntil(5)
	if fired != 5 {
		t.Fatalf("fired %d events by t=5, want 5", fired)
	}
	if e.Now() != 5 {
		t.Fatalf("clock %v, want 5", e.Now())
	}
	if e.Pending() != 5 {
		t.Fatalf("pending %d, want 5", e.Pending())
	}
}

func TestEngineStepEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	a := NewRNG(42)
	b := a.Split()
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[a.Uint64()] = true
	}
	collisions := 0
	for i := 0; i < 100; i++ {
		if seen[b.Uint64()] {
			collisions++
		}
	}
	if collisions > 0 {
		t.Fatalf("split stream collided %d times with parent", collisions)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(1)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("mean %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("stddev %v, want ~2", math.Sqrt(variance))
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(3)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(4)
	}
	if m := sum / n; math.Abs(m-4) > 0.1 {
		t.Errorf("exp mean %v, want ~4", m)
	}
}

func TestRNGJitterNonNegative(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		if v := r.Jitter(1, 0.5); v < 0 {
			t.Fatalf("Jitter returned negative %v", v)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		if n == 0 {
			return true
		}
		p := NewRNG(seed).Perm(int(n))
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
}

func TestRNGRangeBounds(t *testing.T) {
	r := NewRNG(6)
	for i := 0; i < 10000; i++ {
		if v := r.Range(2, 5); v < 2 || v >= 5 {
			t.Fatalf("Range(2,5) = %v", v)
		}
	}
}

// TestSkipEqualsDraws: Skip(n) lands where n draws land, and a cursor
// opened with At(n) draws the same values without moving its parent.
func TestSkipEqualsDraws(t *testing.T) {
	pick := NewRNG(99)
	for trial := 0; trial < 20; trial++ {
		seed, n := pick.Uint64(), uint64(pick.Intn(1_000_001))
		if trial == 0 {
			n = 0
		}
		drawn, skipped, parent := NewRNG(seed), NewRNG(seed), NewRNG(seed)
		for i := uint64(0); i < n; i++ {
			drawn.Uint64()
		}
		skipped.Skip(n)
		ahead := parent.At(n)
		for i := 0; i < 3; i++ {
			want := drawn.Uint64()
			if got := skipped.Uint64(); got != want {
				t.Fatalf("seed %#x: draw %d after Skip(%d) = %#x, want %#x", seed, i, n, got, want)
			}
			if got := ahead.Uint64(); got != want {
				t.Fatalf("seed %#x: draw %d of At(%d) = %#x, want %#x", seed, i, n, got, want)
			}
		}
		if *parent != *NewRNG(seed) {
			t.Fatalf("seed %#x: drawing from an At copy moved its parent", seed)
		}
	}
}
