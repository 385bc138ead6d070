package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/serve"
	"repro/internal/wire"
	"repro/pkg/yalaclient"
)

// serveHot is the per-request-overhead regime: every answer is already
// in the response cache, so yalaclient, wire, the serve front door, obs
// spans and the cache key do all the work and backend/testbed do none.
type serveHot struct {
	cfg  *config
	def  workloadDef
	rig  *rig
	scs  []scenario
	http *yalaclient.Client // same service over /v2 JSON, for the verifier
}

func bootServeHot(cfg *config, def workloadDef) (instance, error) {
	r, err := bootRig(cfg, hotNFs)
	if err != nil {
		return nil, err
	}
	h := &serveHot{cfg: cfg, def: def, rig: r, scs: hotScenarios(cfg), http: yalaclient.New(r.url)}
	t0 := time.Now()
	if _, err := r.predictAll(h.scs); err != nil {
		h.close()
		return nil, fmt.Errorf("warming the response cache: %w", err)
	}
	r.warmS = time.Since(t0).Seconds()
	return h, nil
}

func (h *serveHot) close() { h.rig.close() }

// pick is the index of the scenario input i asks for: uniform over the
// key space.
func (h *serveHot) pick(i int) int {
	return int(mix(h.cfg.Seed^0x686f74, uint64(i)) % uint64(len(h.scs)))
}

func (h *serveHot) window(from int, dur time.Duration, tr *tracer) (windowResult, windowStats) {
	w := runClosed(h.cfg.Clients, from, dur, h.cfg.Slices, func(client, seq int) error {
		return h.rig.predictOp(client, h.scs[h.pick(seq)])
	}, tr)
	return w, w.stats(h.def.TailPct, h.def.Whole)
}

func (h *serveHot) counters() map[string]float64 { return serveCounters(h.rig.svc) }

func (h *serveHot) layers(d, rows map[string]float64) {
	serveLayers(d, rows)
}

func (h *serveHot) setup(rows map[string]float64) { h.rig.setup(rows) }

// verify answers every scenario over the measured transport and checks
// it, field for field, against the service called in-process and against
// the same service's /v2 JSON front door.
func (h *serveHot) verify(rows map[string]float64) []check {
	wireAns, err := h.rig.predictAll(h.scs)
	if err != nil {
		return []check{checkErr("wire==inprocess", err)}
	}
	return []check{
		checkErr("wire==inprocess", h.compare(wireAns, nil)),
		checkErr("wire==json", h.compareJSON(wireAns)),
	}
}

// compare checks wire answers against Service.PredictOn. corrupt, when
// set, damages each wire answer first — the smoke test's proof that the
// verifier can fail.
func (h *serveHot) compare(wireAns []yalaclient.PredictResult, corrupt func(*yalaclient.PredictResult)) error {
	for i, s := range h.scs {
		want, err := h.rig.svc.PredictOn(context.Background(), "", s.request())
		if err != nil {
			return err
		}
		got := wireAns[i]
		if corrupt != nil {
			corrupt(&got)
		}
		if err := sameAnswer(fmt.Sprintf("scenario %d over wire vs in-process", i), asResult(want), got); err != nil {
			return err
		}
	}
	return nil
}

func (h *serveHot) compareJSON(wireAns []yalaclient.PredictResult) error {
	for i, s := range h.scs {
		got, err := h.http.Predict(context.Background(), s.model(), "", s.params())
		if err != nil {
			return err
		}
		if err := sameAnswer(fmt.Sprintf("scenario %d over /v2 JSON vs wire", i), wireAns[i], got); err != nil {
			return err
		}
	}
	return nil
}

// ladder walks a prefix of the inputs down the cache-hit path one layer
// at a time — SDK over wire, bare wire frame, echo frame, service
// in-process — then times the front-door pieces in isolation. The self
// times it derives account for the whole SDK round trip:
// echo + front door + in-process hit + SDK.
func (h *serveHot) ladder(tr *tracer, rows map[string]float64) error {
	ctx := context.Background()
	pool := wire.NewPool(h.rig.ws.Addr(), "", 1)
	defer pool.Close()
	client := h.rig.clients[0]
	n := h.cfg.TraceOps[h.def.Name]
	frames := make([][]byte, len(h.scs))
	reqs := make([]serve.PredictRequest, len(h.scs))
	for i, s := range h.scs {
		frames[i], reqs[i] = s.frame(), s.request()
	}
	cache, keys := standInCache(h.scs)
	var first firstErr
	note := first.note
	for i := 0; i < n; i++ {
		k := h.pick(i)
		s, frame, req := h.scs[k], frames[k], reqs[k]
		start := time.Now()
		tr.rung(i, "yalaclient.call", "op", func() {
			_, err := client.Predict(ctx, s.model(), "", s.params())
			note(err)
		})
		tr.rung(i, "wire.call", "yalaclient.call", func() {
			note(pool.Do(ctx, wire.TypePredict, frame, func(f wire.Frame) error {
				if f.Type != wire.TypePredictResp {
					return fmt.Errorf("wire.call answered with frame type %d", f.Type)
				}
				return nil
			}))
		})
		tr.rung(i, "wire.echo", "wire.call", func() {
			note(pool.Do(ctx, wire.TypeEcho, frame, func(wire.Frame) error { return nil }))
		})
		tr.rung(i, "serve.call", "wire.call", func() {
			_, err := h.rig.svc.PredictOn(ctx, "", req)
			note(err)
		})
		tr.rung(i, "serve.cache", "serve.call", func() { sink, _ = cache.Get(keys[k]) })
		tr.add("ladder", i, "op", "", start, time.Now())
	}
	if first.err != nil {
		return first.err
	}
	// Nanosecond rungs are timed as loops, not spans: two clock reads
	// would outweigh the call.
	hit := loop(10*h.cfg.LadderOps, func(i int) {
		_, err := h.rig.svc.PredictOn(ctx, "", reqs[i%len(reqs)])
		note(err)
	})
	rows["serve.predict_hit_ns"], rows["serve.predict_hit_allocs"] = hit.ns, hit.allocs
	sdk := loop(h.cfg.LadderOps, func(i int) {
		s := h.scs[i%len(h.scs)]
		_, err := client.Predict(ctx, s.model(), "", s.params())
		note(err)
	})
	rows["yalaclient.wire_predict_allocs"] = sdk.allocs
	if err := frontDoorRungs(h.cfg, h.scs, rows); err != nil {
		return err
	}

	rtt, bare, echo := tr.meanUS("yalaclient.call"), tr.meanUS("wire.call"), tr.meanUS("wire.echo")
	rows["yalaclient.wire_predict_rtt_us"] = rtt
	rows["wire.predict_rtt_us"] = bare
	rows["wire.echo_rtt_us"] = echo
	rows["yalaclient.self_us"] = rtt - bare
	rows["serve.frontdoor_self_us"] = bare - echo - hit.ns/1e3
	rows["wire.achieved_over_floor"] = ratio(rtt, echo)
	return first.err
}
