package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/backend"
	"repro/internal/ml"
	"repro/internal/nicsim"
	"repro/internal/serve"
	"repro/internal/testbed"
	"repro/internal/traffic"
	"repro/pkg/yalaclient"
)

// mapeBoundPct is the frozen ceiling on serve-novel's prediction error
// against simulator ground truth. The quick-trained seed-1 models score
// 23-41% on seeds 1-10 (they are crude beside never-seen heavy-flow
// competitors), so the ceiling is a gate against gross damage — a change
// that buys speed by coarsening the traffic profile — while -compare
// holds the exact value to +1.0 point. The smoke test's tiny models are
// not held to it.
const mapeBoundPct = 60.0

// Offsets that keep the verifier's and the ladder's novel inputs apart
// from the measured windows' (which count up from 0) and from each other.
const (
	mapeInputs   = 1 << 30
	ladderInputs = 2 << 30
	rungInputs   = 3 << 30
)

// serveNovel is the traffic-awareness regime: every competitor carries a
// profile nobody has seen, so each request misses the response cache and
// the solo memo, and testbed/nicsim/nf/traffic plus backend/core do
// nearly all the work.
type serveNovel struct {
	cfg *config
	def workloadDef
	rig *rig
}

func bootServeNovel(cfg *config, def workloadDef) (instance, error) {
	r, err := bootRig(cfg, fleetNFs)
	if err != nil {
		return nil, err
	}
	// Fill the response cache (twice its capacity, so every shard is full)
	// with cheap distinct answers: every novel answer's Put then evicts,
	// and the cache works as hard as on serve-hot, on writes not reads.
	t0 := time.Now()
	if err := fillCache(r.svc, cfg.CacheFill); err != nil {
		r.close()
		return nil, err
	}
	r.warmS = time.Since(t0).Seconds()
	return &serveNovel{cfg: cfg, def: def, rig: r}, nil
}

// fillCache stores n distinct competitor-free predictions. A target's own
// profile needs no solo measurement under the yala backend, so each
// costs a model evaluation, not a simulation.
func fillCache(svc *serve.Service, n int) error {
	return parallel(maxClients, n, func(_, i int) error {
		s := scenario{NF: fleetNFs[i%len(fleetNFs)], Profile: traffic.Profile{Flows: 1000 + i, PktSize: 1500, MTBR: 600}}
		_, err := svc.PredictOn(context.Background(), "", s.request())
		return err
	})
}

func (v *serveNovel) close() { v.rig.close() }

func (v *serveNovel) window(from int, dur time.Duration, tr *tracer) (windowResult, windowStats) {
	w := runClosed(v.cfg.Clients, from, dur, v.cfg.Slices, func(client, seq int) error {
		return v.rig.predictOp(client, novelScenario(v.cfg, seq))
	}, tr)
	return w, w.stats(v.def.TailPct, v.def.Whole)
}

func (v *serveNovel) counters() map[string]float64 { return serveCounters(v.rig.svc) }

func (v *serveNovel) layers(d, rows map[string]float64) {
	serveLayers(d, rows)
}

func (v *serveNovel) setup(rows map[string]float64) { v.rig.setup(rows) }

// groundTruth co-runs the scenario on a fresh simulated NIC and returns
// the target's measured throughput.
func groundTruth(s scenario) (float64, error) {
	tb := testbed.New(nicsim.BlueField2(), 1)
	w, err := tb.Workload(s.NF, s.Profile)
	if err != nil {
		return 0, err
	}
	ws := []*nicsim.Workload{w}
	for _, c := range s.Comps {
		cw, err := tb.Workload(c.NF, c.Profile)
		if err != nil {
			return 0, err
		}
		ws = append(ws, cw)
	}
	ms, err := tb.Run(ws...)
	if err != nil {
		return 0, err
	}
	return ms[0].Throughput, nil
}

// verify serves a fixed sample of the generator's scenarios over the
// wire, checks each answer against the in-process call, and scores the
// served predictions against simulator ground truth: the mean absolute
// percentage error must stay under the frozen bound.
func (v *serveNovel) verify(rows map[string]float64) []check {
	scs := make([]scenario, v.cfg.MapeSample)
	for i := range scs {
		scs[i] = novelScenario(v.cfg, mapeInputs+i)
	}
	served, err := v.rig.predictAll(scs)
	if err != nil {
		return []check{checkErr("wire==inprocess", err)}
	}
	var same error
	for i, s := range scs {
		want, err := v.rig.svc.PredictOn(context.Background(), "", s.request())
		if err == nil {
			err = sameAnswer(fmt.Sprintf("novel scenario %d over wire vs in-process", i), asResult(want), served[i])
		}
		if err != nil && same == nil {
			same = err
		}
	}
	mape, err := mapeOf(scs, served)
	if err != nil {
		return []check{checkErr("wire==inprocess", same), checkErr("mape", err)}
	}
	rows["serve.mape_pct"] = mape
	return []check{
		checkErr("wire==inprocess", same),
		checkThat("mape", mape <= mapeBoundPct || v.cfg.Quick, "mape %.3f%% over %d scenarios, bound %.1f%%", mape, len(scs), mapeBoundPct),
	}
}

// mapeOf measures each scenario's ground truth (two at a time) and
// returns the served predictions' mean absolute percentage error.
func mapeOf(scs []scenario, served []yalaclient.PredictResult) (float64, error) {
	truth := make([]float64, len(scs))
	if err := parallel(maxClients, len(scs), func(_, i int) (err error) {
		truth[i], err = groundTruth(scs[i])
		return err
	}); err != nil {
		return 0, err
	}
	total := 0.0
	for i := range scs {
		if !(truth[i] > 0) {
			return 0, fmt.Errorf("ground truth %g for scenario %d is not positive", truth[i], i)
		}
		total += 100 * math.Abs(served[i].PredictedPPS-truth[i]) / truth[i]
	}
	return total / float64(len(scs)), nil
}

// ladder walks novel inputs down the miss path one layer at a time: the
// SDK over the wire, a second service in-process on the same scenario,
// the backend on pre-measured solos, and the testbed measuring those
// solos. Each layer repeats the full novel work below it, which is why
// the prefix is short. The isolated rungs then split the testbed's cost
// and time the cheap-miss regime no end-to-end workload isolates.
func (v *serveNovel) ladder(tr *tracer, rows map[string]float64) error {
	ctx := context.Background()
	inproc := serve.NewService(v.cfg.service())
	defer inproc.Close()
	if _, err := loadModels(inproc, fleetNFs); err != nil {
		return err
	}
	b, _ := backend.Get(backend.DefaultName)
	client := v.rig.clients[0]
	var first firstErr
	note := first.note
	for i := 0; i < v.cfg.TraceOps[v.def.Name] && first.err == nil; i++ {
		s := novelScenario(v.cfg, ladderInputs+i)
		model, err := inproc.Registry().Model(backend.DefaultName, s.NF)
		if err != nil {
			return err
		}
		start := time.Now()
		tr.rung(i, "yalaclient.call", "op", func() {
			_, err := client.Predict(ctx, s.model(), "", s.params())
			note(err)
		})
		tr.rung(i, "serve.call", "yalaclient.call", func() {
			_, err := inproc.PredictOn(ctx, "", s.request())
			note(err)
		})
		solos := make([]nicsim.Measurement, len(s.Comps))
		tr.rung(i, "testbed.call", "backend.call", func() {
			for j, c := range s.Comps {
				var err error
				solos[j], err = testbed.New(nicsim.BlueField2(), 1).SoloNF(c.NF, c.Profile)
				note(err)
			}
		})
		tr.rung(i, "backend.call", "serve.call", func() {
			_, err := b.Predict(model, backendScenario(s, solos))
			note(err)
		})
		tr.add("ladder", i, "op", "", start, time.Now())
	}
	if first.err != nil {
		return first.err
	}
	rows["serve.predict_novel_ms"] = tr.meanUS("serve.call") / 1e3

	// The testbed's share, split: building a never-seen workload (the NF
	// runs its packets) against running it on the simulated NIC.
	few := max(v.cfg.LadderOps/250, 2)
	comps := make([]colo, few)
	for i := range comps {
		comps[i] = novelScenario(v.cfg, rungInputs+2*i).Comps[0]
	}
	solo := loop(few, func(i int) {
		_, err := testbed.New(nicsim.BlueField2(), 1).SoloNF(comps[i].NF, comps[i].Profile)
		note(err)
	})
	rows["testbed.solo_novel_ms"], rows["testbed.solo_novel_allocs"], rows["testbed.solo_novel_mb"] = solo.ns/1e6, solo.allocs, solo.bytes/(1<<20)
	tb := testbed.New(nicsim.BlueField2(), 1)
	built := make([]*nicsim.Workload, few)
	rows["testbed.workload_build_ms"] = loop(few, func(i int) {
		var err error
		built[i], err = tb.Workload(comps[i].NF, comps[i].Profile)
		note(err)
	}).ns / 1e6
	if first.err != nil {
		return first.err
	}
	rows["nicsim.run_solo_ms"] = loop(v.cfg.LadderOps, func(i int) {
		_, err := tb.RunSolo(built[i%few])
		note(err)
	}).ns / 1e6
	rows["nicsim.run_corun3_ms"] = loop(v.cfg.LadderOps, func(i int) {
		_, err := tb.Run(built[i%few], built[(i+1)%few], built[(i+few/2)%few])
		note(err)
	}).ns / 1e6

	// The cheap miss: the response cache misses but the competitor's solo
	// is memoized, so no simulation runs.
	warm := scenario{NF: "ACL", Profile: traffic.Default, Comps: []colo{{"NIDS", traffic.Default}}}
	if _, err := inproc.PredictOn(ctx, "", warm.request()); err != nil {
		return err
	}
	miss := loop(v.cfg.LadderOps, func(i int) {
		s := warm
		s.Profile.Flows = 2000 + i
		_, err := inproc.PredictOn(ctx, "", s.request())
		note(err)
	})
	rows["serve.predict_miss_us"], rows["serve.predict_miss_allocs"] = miss.ns/1e3, miss.allocs

	s := novelScenario(v.cfg, ladderInputs+1)
	model, err := inproc.Registry().Model(backend.DefaultName, s.NF)
	if err != nil {
		return err
	}
	solos := make([]nicsim.Measurement, len(s.Comps))
	for j, c := range s.Comps {
		if solos[j], err = tb.SoloNF(c.NF, c.Profile); err != nil {
			return err
		}
	}
	sc := backendScenario(s, solos)
	pred := loop(10*v.cfg.LadderOps, func(int) {
		_, err := b.Predict(model, sc)
		note(err)
	})
	rows["backend.predict_ns"], rows["backend.predict_allocs"] = pred.ns, pred.allocs

	gbrCfg, X, y := rungGBR(len(backend.QuickYalaConfig(1).Plan.Samples))
	gbr, err := ml.FitGBR(X, y, gbrCfg)
	if err != nil {
		return err
	}
	acc := 0.0
	rows["ml.gbr_predict_ns"] = loop(100*v.cfg.LadderOps, func(i int) { acc += gbr.Predict(X[i%len(X)]) }).ns
	sink = acc
	cachePutEvictRung(v.cfg, rows)
	return first.err
}

// backendScenario is the scenario as the backend interface sees it: the
// competitors' solo measurements already in hand.
func backendScenario(s scenario, solos []nicsim.Measurement) backend.Scenario {
	sc := backend.Scenario{Profile: s.Profile}
	for j, c := range s.Comps {
		sc.Competitors = append(sc.Competitors, backend.Competitor{NF: c.NF, Profile: c.Profile, Solo: &solos[j]})
	}
	return sc
}
