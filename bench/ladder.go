package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tenant"
	"repro/internal/wire"
)

// perOp is what one isolated rung costs per call.
type perOp struct{ ns, allocs, bytes float64 }

// loop times n back-to-back calls from a single caller. Allocation
// counts are process-wide, so a rung that crosses a socket includes what
// the server side allocated for it.
func loop(n int, fn func(i int)) perOp {
	n = max(n, 1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	ns := float64(time.Since(t0).Nanoseconds())
	runtime.ReadMemStats(&m1)
	return perOp{ns / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)}
}

// sink keeps the compiler from discarding a rung's result.
var sink any

// standInCache is an LRU of the service's default size holding one entry
// per scenario under keys shaped like the service's own. The service's
// cache is private; this one stands in for it on the lowest rung.
func standInCache(scs []scenario) (*serve.Cache, []string) {
	cache, keys := serve.NewCache(8192), make([]string, len(scs))
	for i, s := range scs {
		keys[i] = fmt.Sprintf("predict|yala||%s@%s|%d", s.NF, s.Profile, i)
		cache.Put(keys[i], i)
	}
	return cache, keys
}

// frontDoorRungs times the pieces of a cache-hit request that need no
// server: the LRU, span and histogram bookkeeping, the tenant gate and
// the predict codec.
func frontDoorRungs(cfg *config, scs []scenario, rows map[string]float64) error {
	n := 100 * cfg.LadderOps

	cache, keys := standInCache(scs)
	rows["serve.cache_get_ns"] = loop(n, func(i int) { sink, _ = cache.Get(keys[i%len(keys)]) }).ns

	ctx := obs.ContextWithTrace(context.Background(), obs.NewTrace("bench"))
	rows["obs.span_ns"] = loop(n, func(int) { obs.StartSpan(ctx, "cache").End() }).ns
	hist := obs.NewHistogram(nil)
	rows["obs.hist_observe_ns"] = loop(n, func(i int) { hist.Observe(float64(i%1000) * 1e-6) }).ns

	gate := tenant.NewGate(tenant.AnonymousOnly(), tenant.GateConfig{})
	now := time.Now()
	rows["tenant.gate_admit_ns"] = loop(n/10, func(int) {
		d := gate.Admit("", tenant.ClassInteractive, now)
		gate.Observe(d, 50*time.Microsecond, false)
	}).ns

	// One predict's codec work on both ends: encode and decode the
	// request, encode and decode the response.
	req, err := wire.DecodePredictRequest(scs[len(scs)-1].frame())
	if err != nil {
		return err
	}
	resp := wire.PredictResponse{NF: req.NF, Backend: req.Backend, Profile: req.Profile, SoloPPS: 1e6, PredictedPPS: 9e5,
		Bottleneck: "memory", PerResource: []wire.ResourcePPS{{Resource: "memory", PPS: 9e5}, {Resource: "regex", PPS: 1e6}}}
	var cerr error
	codec := loop(n/10, func(int) {
		buf := wire.AppendPredictRequest(wire.GetBuf(), &req)
		if _, err := wire.DecodePredictRequest(buf); err != nil {
			cerr = err
		}
		buf = wire.AppendPredictResponse(buf[:0], &resp)
		if _, err := wire.DecodePredictResponse(buf); err != nil {
			cerr = err
		}
		wire.PutBuf(buf)
	})
	rows["wire.codec_predict_ns"], rows["wire.codec_predict_allocs"] = codec.ns, codec.allocs
	return cerr
}

// cachePutEvictRung times a Put into a full LRU, which evicts: what the
// response cache does on every novel request.
func cachePutEvictRung(cfg *config, rows map[string]float64) {
	cache := serve.NewCache(1024)
	for i := 0; i < 1024; i++ {
		cache.Put(fmt.Sprintf("fill|%d", i), i)
	}
	fresh := make([]string, 10*cfg.LadderOps)
	for i := range fresh {
		fresh[i] = fmt.Sprintf("predict|yala||novel|%d", i)
	}
	rows["serve.cache_put_evict_ns"] = loop(len(fresh), func(i int) { cache.Put(fresh[i], i) }).ns
}
