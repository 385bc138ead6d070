package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/feedback"
	"repro/internal/gateway"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/wire"
	"repro/pkg/yalaclient"
)

// The op mix, as cumulative shares of a uniform draw: 80% single
// predicts, 10% batches of mixBatch, 5% admits, 5% ingests. A model
// :reload replaces the op at every reloadEvery-th index.
const (
	mixPredict  = 0.80
	mixBatchTo  = 0.90
	mixAdmitTo  = 0.95
	mixBatch    = 8
	mixSLA      = 0.1
	mixReplicas = 2
	mixSample   = 64 // scenarios the verifier and the ingest ops use
	// reloadSeconds is the spacing of :reload ops at the fixed rate.
	reloadSeconds = 8
)

// gatewayMix is the scale-out path at a realistic, unsaturated rate:
// SDK over HTTP/JSON to a gateway over two wire-upstream replicas, edge
// cache hits beside routed misses beside scatter/gather, and the write
// side of the same layers (ingest, reload fan-out).
type gatewayMix struct {
	cfg      *config
	def      workloadDef
	replicas []*gateway.Replica
	gw       *gateway.Gateway
	srv      *http.Server
	url      string
	clients  []*yalaclient.Client
	scs      []scenario
	zipf     zipf
	// predicted holds the gateway's answers for the first mixSample
	// scenarios: what ingest ops report back as measured, within 0.5%.
	predicted     []float64
	loadMS, warmS float64
}

func bootGatewayMix(cfg *config, def workloadDef) (instance, error) {
	replicas, err := gateway.SpawnReplicas(mixReplicas, cfg.service())
	if err != nil {
		return nil, err
	}
	m := &gatewayMix{cfg: cfg, def: def, replicas: replicas,
		scs: mixScenarios(cfg), zipf: newZipf(cfg.MixScenarios)}
	urls := make([]string, len(replicas))
	for i, rep := range replicas {
		urls[i] = rep.URL
		ms, err := loadModels(rep.Service(), fleetNFs)
		if err != nil {
			gateway.CloseReplicas(replicas)
			return nil, err
		}
		m.loadMS += ms / float64(len(replicas))
	}
	if m.gw, err = gateway.New(gateway.Config{Backends: urls, HealthInterval: 100 * time.Millisecond}); err != nil {
		gateway.CloseReplicas(replicas)
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.gw.Close()
		gateway.CloseReplicas(replicas)
		return nil, err
	}
	m.srv = &http.Server{Handler: m.gw.Handler()}
	go m.srv.Serve(lis)
	m.url = "http://" + lis.Addr().String()
	for i := 0; i < cfg.Clients; i++ {
		m.clients = append(m.clients, yalaclient.New(m.url))
	}
	if err := m.warm(); err != nil {
		m.close()
		return nil, err
	}
	return m, nil
}

func (m *gatewayMix) close() {
	m.srv.Close()
	m.gw.Close()
	gateway.CloseReplicas(m.replicas)
}

func (m *gatewayMix) services() []*serve.Service {
	out := make([]*serve.Service, len(m.replicas))
	for i, rep := range m.replicas {
		out[i] = rep.Service()
	}
	return out
}

// warm brings the stack to the state the window measures: the gateway's
// upstream hops upgraded to wire, every replica's solo memo holding the
// profile pool, and the caches filled by a closed-loop run of the op
// stream's own warm-up prefix.
func (m *gatewayMix) warm() error {
	ctx := context.Background()
	t0 := time.Now()
	// Solo memo: every target beside every (NF, pool profile) competitor,
	// until the replicas report wire-borne requests — the gateway's
	// health loop discovers their wire listeners within a few probes.
	pool := profilePool(m.cfg.Seed, 4)
	deadline := time.Now().Add(5 * time.Second)
	for round := 0; ; round++ {
		var soloWarm []scenario
		for _, target := range fleetNFs {
			for _, cnf := range fleetNFs {
				for _, cp := range pool {
					s := scenario{NF: target, Profile: pool[round%len(pool)], Comps: []colo{{cnf, cp}}}
					s.Profile.Flows += round / len(pool) // a fresh key each round, never an edge hit
					soloWarm = append(soloWarm, s)
				}
			}
		}
		if err := parallel(len(m.clients), len(soloWarm), func(c, i int) error {
			_, err := m.clients[c].Predict(ctx, soloWarm[i].model(), "", soloWarm[i].params())
			return err
		}); err != nil {
			return fmt.Errorf("warming solo memos: %w", err)
		}
		if m.wireUpstreams(serveCountersEach(m.services())) == len(m.replicas) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway never upgraded both upstream hops to wire")
		}
		time.Sleep(25 * time.Millisecond)
	}
	m.predicted = make([]float64, min(mixSample, len(m.scs)))
	if err := parallel(len(m.clients), len(m.predicted), func(c, i int) error {
		res, err := m.clients[c].Predict(ctx, m.scs[i].model(), "", m.scs[i].params())
		m.predicted[i] = res.PredictedPPS
		return err
	}); err != nil {
		return err
	}
	if err := parallel(len(m.clients), m.cfg.MixWarmOps, func(c, i int) error { return m.op(c, -1-i) }); err != nil {
		return fmt.Errorf("warm-up prefix: %w", err)
	}
	m.warmS = time.Since(t0).Seconds()
	return nil
}

// serveCountersEach reads every service's counters separately.
func serveCountersEach(svcs []*serve.Service) []map[string]float64 {
	out := make([]map[string]float64, len(svcs))
	for i, svc := range svcs {
		out[i] = serveCounters(svc)
	}
	return out
}

// wireUpstreams counts replicas that have served wire-borne requests.
func (m *gatewayMix) wireUpstreams(per []map[string]float64) int {
	n := 0
	for _, c := range per {
		if c["req.wire"] > 0 {
			n++
		}
	}
	return n
}

// op issues input seq (negative indices are the warm-up prefix): the
// kind and the scenario are functions of (seed, seq) alone.
func (m *gatewayMix) op(client, seq int) error {
	ctx := context.Background()
	c := m.clients[client]
	rng := sim.NewRNG(mix(m.cfg.Seed^0x6f70, uint64(int64(seq))))
	every := int(reloadSeconds * m.cfg.MixRate)
	if seq >= 0 && seq%every == every/2 {
		return c.Reload(ctx, yalaclient.ModelID{NF: fleetNFs[seq/every%len(fleetNFs)]}, "")
	}
	roll := rng.Float64()
	draw := func() scenario { return m.scs[m.zipf.draw(rng.Float64())] }
	switch {
	case roll < mixPredict:
		s := draw()
		res, err := c.Predict(ctx, s.model(), "", s.params())
		if err == nil && !(res.PredictedPPS > 0) {
			err = fmt.Errorf("predict %s: implausible answer %s", s.NF, flat(res))
		}
		return err
	case roll < mixBatchTo:
		items := make([]yalaclient.BatchItem, mixBatch)
		for i := range items {
			items[i] = draw().batchItem()
		}
		res, err := c.PredictBatch(ctx, items)
		if err != nil {
			return err
		}
		for i, e := range res.Errors {
			if e != "" {
				return fmt.Errorf("batch element %d: %s", i, e)
			}
		}
		if len(res.Responses) != mixBatch {
			return fmt.Errorf("batch of %d answered with %d responses", mixBatch, len(res.Responses))
		}
		return nil
	case roll < mixAdmitTo:
		s := draw()
		_, err := c.Admit(ctx, s.model(), "", s.admit(mixSLA))
		return err
	default:
		i := rng.Intn(len(m.predicted))
		p := m.scs[i].params()
		res, err := c.Ingest(ctx, yalaclient.Measurement{
			Model: m.scs[i].model(), Profile: p.Profile, Competitors: p.Competitors,
			MeasuredPPS: m.predicted[i] * (1 + 0.005*(2*rng.Float64()-1)),
			Source:      fmt.Sprintf("bench-%d", rng.Intn(3)),
		})
		if err == nil && res.Accepted != 1 {
			err = fmt.Errorf("ingest accepted %d of 1 measurement", res.Accepted)
		}
		return err
	}
}

func (m *gatewayMix) window(from int, dur time.Duration, tr *tracer) (windowResult, windowStats) {
	w := runOpen(m.cfg.Clients, from, m.cfg.MixRate, dur, m.cfg.Slices, m.op, tr)
	return w, w.stats(m.def.TailPct, m.def.Whole)
}

func (m *gatewayMix) counters() map[string]float64 {
	per := serveCountersEach(m.services())
	c := map[string]float64{}
	for i, one := range per {
		for k, v := range one {
			c[k] += v
		}
		c[fmt.Sprintf("replica.%d.wire", i)] = one["req.wire"]
	}
	exp := scrape(m.gw.Obs())
	for _, name := range []string{"edge_hits", "edge_misses", "coalesced", "retries"} {
		c["gw."+name] = counterSum(exp, "gateway_"+name+"_total", "")
	}
	c["gw.upstream.sum"], c["gw.upstream.n"] = histTotals(exp, "gateway_upstream_seconds", "")
	for i, rep := range m.replicas {
		c[fmt.Sprintf("replica.%d.requests", i)] = counterSum(exp, "gateway_replica_requests_total", rep.URL)
	}
	return c
}

func (m *gatewayMix) layers(d, rows map[string]float64) {
	serveLayers(d, rows)
	rows["gateway.edge_hit_ratio"] = ratio(d["gw.edge_hits"], d["gw.edge_hits"]+d["gw.edge_misses"])
	rows["gateway.coalesced"] = d["gw.coalesced"]
	rows["gateway.retries"] = d["gw.retries"]
	rows["gateway.upstream_us"] = 1e6 * ratio(d["gw.upstream.sum"], d["gw.upstream.n"])
	total, most, wired := 0.0, 0.0, 0.0
	for i := range m.replicas {
		n := d[fmt.Sprintf("replica.%d.requests", i)]
		total, most = total+n, max(most, n)
		if d[fmt.Sprintf("replica.%d.wire", i)] > 0 {
			wired++
		}
	}
	rows["gateway.replica_share_max"] = ratio(most, total)
	rows["gateway.wire_upstreams"] = wired
}

func (m *gatewayMix) setup(rows map[string]float64) {
	rows["backend.load_ms"] = m.loadMS
	rows["testbed.solo_warm_s"] = m.warmS
}

// verify answers the sample scenarios through the gateway's /v2 JSON
// front door and checks each, field for field, against a replica called
// in-process and against the same replica's wire listener.
func (m *gatewayMix) verify(rows map[string]float64) []check {
	ctx := context.Background()
	rep := m.replicas[0].Service()
	direct := yalaclient.New(m.replicas[0].URL, yalaclient.WithWire(rep.WireAddr()))
	defer direct.Close()
	var viaJSON, viaWire error
	for i := range m.predicted {
		s := m.scs[i]
		want, err := rep.PredictOn(ctx, "", s.request())
		if err != nil {
			return []check{checkErr("json==inprocess", err)}
		}
		got, err := m.clients[0].Predict(ctx, s.model(), "", s.params())
		if err == nil {
			err = sameAnswer(fmt.Sprintf("scenario %d through the gateway vs in-process", i), asResult(want), got)
		}
		if err != nil && viaJSON == nil {
			viaJSON = err
		}
		overWire, err := direct.Predict(ctx, s.model(), "", s.params())
		if err == nil && !direct.WireActive() {
			err = fmt.Errorf("replica wire listener unreachable")
		}
		if err == nil {
			err = sameAnswer(fmt.Sprintf("scenario %d over wire vs /v2 JSON", i), got, overWire)
		}
		if err != nil && viaWire == nil {
			viaWire = err
		}
	}
	trips := 0.0
	for _, svc := range m.services() {
		trips += float64(svc.Feedback().Stats().Trips)
	}
	return []check{
		checkErr("json==inprocess", viaJSON),
		checkErr("wire==json", viaWire),
		checkThat("drift gate quiet", trips == 0, "%g trips", trips),
	}
}

// ladder walks predict inputs down the scale-out path one layer at a
// time — SDK over HTTP to the gateway, the gateway's handler called
// directly, a TypeCall frame straight to a replica, the replica's
// service in-process — and times the gateway's other paths and the
// serving write side in isolation.
func (m *gatewayMix) ladder(tr *tracer, rows map[string]float64) error {
	ctx := context.Background()
	handler := m.gw.Handler()
	rep := m.replicas[0].Service()
	pool := wire.NewPool(rep.WireAddr(), "", 1)
	defer pool.Close()
	var first firstErr
	note := first.note
	post := func(uri string, body []byte) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, uri, bytes.NewReader(body)))
		if rec.Code != http.StatusOK && rec.Code != http.StatusNoContent {
			note(fmt.Errorf("gateway handler answered %s with %d: %s", uri, rec.Code, rec.Body.String()))
		}
	}
	predictURI := func(s scenario) string { return "/v2/models/" + s.NF + "/yala:predict" }
	for i := 0; i < m.cfg.TraceOps[m.def.Name] && first.err == nil; i++ {
		s := m.scs[m.zipf.draw(sim.NewRNG(mix(m.cfg.Seed^0x6c6164, uint64(i))).Float64())]
		body, err := json.Marshal(s.params())
		if err != nil {
			return err
		}
		call := wire.AppendCall(nil, &wire.Call{Method: http.MethodPost, URI: predictURI(s), ContentType: "application/json", Body: body})
		req := s.request()
		start := time.Now()
		tr.rung(i, "yalaclient.call", "op", func() {
			_, err := m.clients[0].Predict(ctx, s.model(), "", s.params())
			note(err)
		})
		tr.rung(i, "gateway.call", "yalaclient.call", func() { post(predictURI(s), body) })
		tr.rung(i, "wire.call", "gateway.call", func() {
			note(pool.Do(ctx, wire.TypeCall, call, func(f wire.Frame) error {
				if f.Type != wire.TypeCallResp {
					return fmt.Errorf("wire.call answered with frame type %d", f.Type)
				}
				return nil
			}))
		})
		tr.rung(i, "serve.call", "wire.call", func() {
			_, err := rep.PredictOn(ctx, "", req)
			note(err)
		})
		tr.add("ladder", i, "op", "", start, time.Now())
	}
	if first.err != nil {
		return first.err
	}
	rows["yalaclient.http_predict_rtt_us"] = tr.meanUS("yalaclient.call")
	n := m.cfg.LadderOps
	hot := m.scs[0]
	rows["yalaclient.http_predict_allocs"] = loop(n, func(int) {
		_, err := m.clients[0].Predict(ctx, hot.model(), "", hot.params())
		note(err)
	}).allocs

	// The gateway's own paths, handler called directly: a routed miss
	// (fresh key, cheap on the replica), the same request again as an
	// edge hit, an eight-way scatter, and a reload fan-out.
	bodies := make([][]byte, n)
	for i := range bodies {
		s := scenario{NF: fleetNFs[i%len(fleetNFs)], Profile: traffic.Profile{Flows: 3000 + i, PktSize: 1500, MTBR: 600}}
		bodies[i], _ = json.Marshal(s.params())
	}
	uri := func(i int) string { return "/v2/models/" + fleetNFs[i%len(fleetNFs)] + "/yala:predict" }
	rows["gateway.routed_us"] = loop(n, func(i int) { post(uri(i), bodies[i]) }).ns / 1e3
	rows["gateway.edge_hit_us"] = loop(n, func(i int) { post(uri(i), bodies[i]) }).ns / 1e3
	var batch struct {
		Requests []map[string]any `json:"requests"`
	}
	for i := 0; i < mixBatch; i++ {
		p := m.scs[i].params()
		batch.Requests = append(batch.Requests, map[string]any{"model": m.scs[i].NF, "profile": p.Profile, "competitors": p.Competitors})
	}
	batchBody, err := json.Marshal(batch)
	if err != nil {
		return err
	}
	rows["gateway.batch8_scatter_us"] = loop(n/4, func(int) { post("/v2/models:batchPredict", batchBody) }).ns / 1e3
	rows["gateway.reload_fanout_ms"] = loop(len(fleetNFs), func(i int) { post("/v2/models/"+fleetNFs[i]+"/yala:reload", nil) }).ns / 1e6

	// The HTTP floor: an empty handler behind the same net/http server
	// and the same client transport settings the SDK uses.
	floorLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	floor := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, http.MaxBytesReader(w, r.Body, 1<<20))
		w.Write([]byte("{}"))
	})}
	go floor.Serve(floorLis)
	defer floor.Close()
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = 256
	hc := &http.Client{Transport: transport}
	defer transport.CloseIdleConnections()
	rows["floor.http_rtt_us"] = loop(n, func(int) {
		resp, err := hc.Post("http://"+floorLis.Addr().String()+"/", "application/json", bytes.NewReader(bodies[0]))
		if err != nil {
			note(err)
			return
		}
		_, err = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		note(err)
		resp.Body.Close()
	}).ns / 1e3

	// The serving write side, in-process on a replica with warm solos:
	// an admission miss (the SLA is part of the key) and one ingest.
	admitOn := m.scs[0]
	for _, s := range m.scs[:mixSample] {
		if len(s.Comps) >= 2 {
			admitOn = s
			break
		}
	}
	admit := serve.AdmitRequest{Candidate: serve.ColoNF{Name: admitOn.NF, Profile: serve.SpecOf(admitOn.Profile), SLA: mixSLA}}
	for _, c := range admitOn.Comps {
		admit.Residents = append(admit.Residents, serve.ColoNF{Name: c.NF, Profile: serve.SpecOf(c.Profile), SLA: mixSLA})
	}
	rows["serve.admit_miss_us"] = loop(n/4, func(i int) {
		admit.Candidate.SLA = mixSLA + float64(i+1)*1e-9
		_, err := rep.AdmitOn(ctx, "", admit)
		note(err)
	}).ns / 1e3
	ingestReq := m.scs[0].request()
	truth, err := rep.PredictOn(ctx, "", ingestReq)
	if err != nil {
		return err
	}
	items := []serve.IngestMeasurement{{NF: ingestReq.NF, Profile: ingestReq.Profile, Competitors: ingestReq.Competitors,
		MeasuredPPS: truth.PredictedPPS, Source: "bench-ladder"}}
	rows["serve.ingest_us"] = loop(n, func(int) {
		_, err := rep.Ingest(ctx, items)
		note(err)
	}).ns / 1e3

	ctrl := feedback.New(feedback.Config{Synchronous: true})
	defer ctrl.Close()
	obsv := feedback.Observation{Key: feedback.Key{NF: "ACL", Backend: "yala"}, Scenario: "bench", Source: "bench-ladder", Measured: 1e6, LivePred: 1e6}
	rows["feedback.observe_ns"] = loop(10*n, func(int) { ctrl.Observe(obsv) }).ns
	return first.err
}
