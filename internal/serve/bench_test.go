package serve

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/wire"
)

// Serving-hot-path benchmarks: the perf baseline future scaling PRs
// (batching, sharding, multi-backend) measure against. Run with:
//
//	go test -bench=. -benchmem ./internal/serve
//
// The registry trains once per benchmark process (tiny test config); the
// measured loop is pure serving.

func benchService(b *testing.B) *Service {
	b.Helper()
	s := NewService(ServiceConfig{
		Registry: RegistryConfig{
			Dir:   b.TempDir(),
			Seed:  1,
			Train: testTrainConfig(1),
			SLOMO: testSLOMOConfig(1),
		},
		Workers: 4,
	})
	b.Cleanup(s.Close)
	return s
}

// BenchmarkPredictCacheHit measures the warm path: one scenario answered
// repeatedly.
func BenchmarkPredictCacheHit(b *testing.B) {
	s := benchService(b)
	req := PredictRequest{NF: "FlowStats", Competitors: []CompetitorSpec{{Name: "ACL"}}}
	if _, err := s.PredictOn(context.Background(), "", req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.PredictOn(context.Background(), "", req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictCacheMiss measures the cold path: every iteration is a
// fresh traffic profile, so each request runs the full predictor stack
// (solo measurement + model evaluation).
func BenchmarkPredictCacheMiss(b *testing.B) {
	s := benchService(b)
	// Pre-train and warm the competitor solo measurement so iterations
	// measure the per-scenario cost, not one-time setup.
	if _, err := s.PredictOn(context.Background(), "", PredictRequest{NF: "FlowStats", Competitors: []CompetitorSpec{{Name: "ACL"}}}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := PredictRequest{
			NF:          "FlowStats",
			Profile:     ProfileSpec{MTBR: wire.F64(100 + float64(i%100000)*0.001)},
			Competitors: []CompetitorSpec{{Name: "ACL"}},
		}
		if _, err := s.PredictOn(context.Background(), "", req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMixedArrivalWorkload replays a loadgen-like scenario mix
// in-process from parallel goroutines: mostly warm hits with a tail of
// misses, the serving steady state.
func BenchmarkMixedArrivalWorkload(b *testing.B) {
	s := benchService(b)
	nfs := []string{"FlowStats", "ACL"}
	profiles := []ProfileSpec{{}, {Flows: 64000}, {PktSize: 256}, {Flows: 4000, PktSize: 512}}
	// Warm every (nf, competitor, profile) combination the mix draws from.
	for _, nf := range nfs {
		for _, p := range profiles {
			for _, comp := range nfs {
				req := PredictRequest{NF: nf, Profile: p, Competitors: []CompetitorSpec{{Name: comp}}}
				if _, err := s.PredictOn(context.Background(), "", req); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := sim.NewRNG(uint64(b.N) + 0x5eed)
		for pb.Next() {
			req := PredictRequest{
				NF:          nfs[rng.Intn(len(nfs))],
				Profile:     profiles[rng.Intn(len(profiles))],
				Competitors: []CompetitorSpec{{Name: nfs[rng.Intn(len(nfs))]}},
			}
			if rng.Float64() < 0.02 { // 2% cold tail
				req.Profile = ProfileSpec{MTBR: wire.F64(rng.Range(100, 1000))}
			}
			if _, err := s.PredictOn(context.Background(), "", req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCacheOnly isolates the sharded LRU itself.
func BenchmarkCacheOnly(b *testing.B) {
	c := NewCache(8192)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("predict|yala|NF%d@(16000, 1500, 600)|", i)
		c.Put(keys[i], PredictResponse{NF: keys[i]})
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := c.Get(keys[i%len(keys)]); !ok {
				b.Fatal("unexpected miss")
			}
			i++
		}
	})
}
