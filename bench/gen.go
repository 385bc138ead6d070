package main

import (
	"sort"

	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/wire"
	"repro/pkg/yalaclient"
)

// The NF pools. hotNFs are serve-hot's three targets; fleetNFs is the
// cluster package's default pool, which the other workloads share.
var (
	hotNFs   = []string{"FlowStats", "ACL", "NIDS"}
	fleetNFs = []string{"FlowStats", "ACL", "NAT", "FlowMonitor", "NIDS"}
)

// colo is one co-resident NF in a scenario.
type colo struct {
	NF      string
	Profile traffic.Profile
}

// scenario is one prediction question: target NF, its traffic profile,
// and the competitors sharing its NIC. It is the benchmark's own input
// type; the three forms below are what each transport is handed.
type scenario struct {
	NF      string
	Profile traffic.Profile
	Comps   []colo
}

func clientProfile(p traffic.Profile) yalaclient.ProfileSpec {
	return yalaclient.ProfileSpec{Flows: p.Flows, PktSize: p.PktSize, MTBR: yalaclient.F64(p.MTBR)}
}

func (s scenario) model() yalaclient.ModelID { return yalaclient.ModelID{NF: s.NF} }

// params is the SDK form.
func (s scenario) params() yalaclient.PredictParams {
	p := yalaclient.PredictParams{Profile: clientProfile(s.Profile)}
	for _, c := range s.Comps {
		p.Competitors = append(p.Competitors, yalaclient.Competitor{Name: c.NF, Profile: clientProfile(c.Profile)})
	}
	return p
}

// request is the in-process form Service.PredictOn takes.
func (s scenario) request() serve.PredictRequest {
	r := serve.PredictRequest{NF: s.NF, Profile: serve.SpecOf(s.Profile)}
	for _, c := range s.Comps {
		r.Competitors = append(r.Competitors, serve.CompetitorSpec{Name: c.NF, Profile: serve.SpecOf(c.Profile)})
	}
	return r
}

// frame is the encoded yalawire TypePredict payload, for rungs that call
// the wire pool without the SDK.
func (s scenario) frame() []byte {
	wp := func(p traffic.Profile) wire.Profile {
		return wire.Profile{Flows: p.Flows, PktSize: p.PktSize, MTBR: yalaclient.F64(p.MTBR)}
	}
	r := wire.PredictRequest{NF: s.NF, Backend: yalaclient.DefaultBackend, Profile: wp(s.Profile)}
	for _, c := range s.Comps {
		r.Competitors = append(r.Competitors, wire.Competitor{Name: c.NF, Profile: wp(c.Profile)})
	}
	return wire.AppendPredictRequest(nil, &r)
}

// batchItem is the SDK's PredictBatch element form.
func (s scenario) batchItem() yalaclient.BatchItem {
	p := s.params()
	return yalaclient.BatchItem{Model: s.model(), Profile: p.Profile, Competitors: p.Competitors}
}

// admit turns the scenario into an admission question: the target is the
// candidate, the competitors are the residents, every SLA is sla.
func (s scenario) admit(sla float64) yalaclient.AdmitParams {
	a := yalaclient.AdmitParams{Profile: clientProfile(s.Profile), SLA: sla}
	for _, c := range s.Comps {
		a.Residents = append(a.Residents, yalaclient.Resident{Name: c.NF, Profile: clientProfile(c.Profile), SLA: sla})
	}
	return a
}

// profilePool is the default profile plus n-1 distinct seeded picks from
// the five profiles of the paper's evaluation grid that vary packet size
// or MTBR at the default flow count. The cached-regime workloads draw
// from it. A solo measurement costs time linear in the flow count, so
// holding that fixed keeps the solo-memo warm-up the same size whatever
// the seed picks.
func profilePool(seed uint64, n int) []traffic.Profile {
	var grid []traffic.Profile
	for _, p := range traffic.EvalProfiles()[1:] {
		if p.Flows == traffic.Default.Flows {
			grid = append(grid, p)
		}
	}
	rng := sim.NewRNG(mix(seed, 0x706f6f6c))
	pool := []traffic.Profile{traffic.Default}
	for _, i := range rng.Perm(len(grid)) {
		if len(pool) == n {
			break
		}
		pool = append(pool, grid[i])
	}
	return pool
}

// hotScenarios enumerates serve-hot's whole key space: every target NF at
// every pool profile, alone and beside every (NF, profile) competitor.
func hotScenarios(cfg *config) []scenario {
	pool := profilePool(cfg.Seed, 2)
	var out []scenario
	for _, nf := range hotNFs {
		for _, p := range pool {
			out = append(out, scenario{NF: nf, Profile: p})
			for _, cnf := range hotNFs {
				for _, cp := range pool {
					out = append(out, scenario{NF: nf, Profile: p, Comps: []colo{{cnf, cp}}})
				}
			}
		}
	}
	return out
}

// novelStrata is the block size of the stratified flow-count draw below.
const novelStrata = 16

// novelScenario is serve-novel's input i: a target at the default
// profile beside one or two competitors whose profiles nobody has seen
// before. A solo measurement costs time linear in the flow count, so
// flow counts are stratified: every block of novelStrata consecutive
// competitor draws covers the paper's whole flow range once, in a
// seeded order. Each profile is still uniform over the bounds and still
// unique; what stratifying removes is the seed-to-seed luck in how much
// work a window happens to draw.
func novelScenario(cfg *config, i int) scenario {
	seed := cfg.Seed
	rng := sim.NewRNG(mix(seed^0x6e6f76656c, uint64(i)))
	s := scenario{NF: fleetNFs[rng.Intn(len(fleetNFs))], Profile: traffic.Default}
	for c := 0; c < 1+i%2; c++ {
		// Input i owns competitor draws 3i/2 .. (odd i draws two).
		draw := i/2*3 + i%2 + c
		block, pos := draw/novelStrata, draw%novelStrata
		stratum := sim.NewRNG(mix(seed^0x737472617461, uint64(block))).Perm(novelStrata)[pos]
		lo, _ := traffic.AttrFlows.Bounds()
		hi := cfg.NovelFlowsHi
		p := traffic.Random(rng)
		p.Flows = int(lo + (hi-lo)*(float64(stratum)+rng.Float64())/novelStrata)
		s.Comps = append(s.Comps, colo{fleetNFs[rng.Intn(len(fleetNFs))], p})
	}
	return s
}

// mixScenarios pre-generates gateway-mix's scenario population: target
// and profile from the pools, zero to three competitors.
func mixScenarios(cfg *config) []scenario {
	pool := profilePool(cfg.Seed, 4)
	rng := sim.NewRNG(mix(cfg.Seed, 0x6d6978))
	out := make([]scenario, cfg.MixScenarios)
	for i := range out {
		s := scenario{NF: fleetNFs[rng.Intn(len(fleetNFs))], Profile: pool[rng.Intn(len(pool))]}
		for c := rng.Intn(4); c > 0; c-- {
			s.Comps = append(s.Comps, colo{fleetNFs[rng.Intn(len(fleetNFs))], pool[rng.Intn(len(pool))]})
		}
		out[i] = s
	}
	return out
}

// zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1): a few scenarios are asked for constantly, most rarely.
type zipf struct{ cdf []float64 }

func newZipf(n int) zipf {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / float64(i+1)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return zipf{cdf}
}

func (z zipf) draw(u float64) int {
	return min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1)
}
