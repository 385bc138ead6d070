package experiments

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/diagnose"
	"repro/internal/nf"
	"repro/internal/nfbench"
	"repro/internal/nicsim"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// evalColocation measures prediction accuracy for one target NF across
// random co-location sets and traffic profiles — the Table 2 protocol.
// withRegexBench additionally mixes in synthetic regex contention.
func (l *Lab) evalColocation(target string, profiles []traffic.Profile, sets int) (yala, slomoS accStats, err error) {
	yModel, err := l.Yala(target)
	if err != nil {
		return yala, slomoS, err
	}
	sModel, err := l.SLOMO(target)
	if err != nil {
		return yala, slomoS, err
	}
	names := nf.Table1Names()
	rng := sim.NewRNG(l.Seed ^ 0x7ab2)

	for s := 0; s < sets; s++ {
		// Random co-location: 1-3 other NFs at the default profile.
		k := 1 + rng.Intn(3)
		var others []string
		for j := 0; j < k; j++ {
			o := names[rng.Intn(len(names))]
			for o == target {
				o = names[rng.Intn(len(names))]
			}
			others = append(others, o)
		}
		prof := profiles[s%len(profiles)]

		w, err := l.TB.Workload(target, prof)
		if err != nil {
			return yala, slomoS, err
		}
		ws := []*nicsim.Workload{w}
		var comps []core.Competitor
		var agg nicsim.Counters
		for _, o := range others {
			ow, err := l.TB.Workload(o, traffic.Default)
			if err != nil {
				return yala, slomoS, err
			}
			ws = append(ws, ow)
			solo, err := l.TB.RunSolo(ow)
			if err != nil {
				return yala, slomoS, err
			}
			comps = append(comps, core.CompetitorFromMeasurement(solo))
			agg.Add(solo.Counters)
		}
		ms, err := l.TB.Run(ws...)
		if err != nil {
			return yala, slomoS, err
		}
		truth := ms[0].Throughput

		yala.add(yModel.Predict(prof, comps).Throughput, truth)
		soloNew, err := l.soloAt(target, prof)
		if err != nil {
			return yala, slomoS, err
		}
		slomoS.add(sModel.PredictExtrapolated(agg, soloNew), truth)
	}
	return yala, slomoS, nil
}

// Table2 reproduces the overall accuracy comparison: nine NFs under
// multi-resource contention and varying traffic attributes.
func Table2(l *Lab) (*Report, error) {
	r := &Report{ID: "table2", Title: "Overall prediction accuracy (multi-resource + traffic)"}
	var rows [][]string
	profiles := traffic.EvalProfiles()
	for _, name := range nf.Table1Names() {
		y, s, err := l.evalColocation(name, profiles, l.n(45, 18))
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			name,
			f1(s.mape()), f1(s.acc5()), f1(s.acc10()),
			f1(y.mape()), f1(y.acc5()), f1(y.acc10()),
		})
	}
	r.table([]string{"NF", "SLOMO MAPE%", "±5%", "±10%", "Yala MAPE%", "±5%", "±10%"}, rows)
	return r, nil
}

// Table3 reproduces the multi-resource-only comparison (fixed default
// traffic): NIDS and FlowMonitor under mem-bench + regex-bench.
func Table3(l *Lab) (*Report, error) {
	r := &Report{ID: "table3", Title: "Accuracy under multi-resource contention (default traffic)"}
	rng := sim.NewRNG(l.Seed ^ 0x7ab3)
	var rows [][]string
	for _, name := range []string{"NIDS", "FlowMonitor"} {
		yModel, err := l.Yala(name)
		if err != nil {
			return nil, err
		}
		sModel, err := l.SLOMO(name)
		if err != nil {
			return nil, err
		}
		w, err := l.TB.Workload(name, traffic.Default)
		if err != nil {
			return nil, err
		}
		var y, s accStats
		for i := 0; i < l.n(45, 15); i++ {
			memB := nfbench.MemBench(rng.Range(30e6, 200e6), rng.Range(1<<20, 14<<20))
			regexB := nfbench.RegexBench(rng.Range(0.15e6, 0.7e6), 1000, 2000, 1)
			ms, err := l.TB.Run(w, memB, regexB)
			if err != nil {
				return nil, err
			}
			memSolo, err := l.TB.RunSolo(memB)
			if err != nil {
				return nil, err
			}
			regexSolo, err := l.TB.RunSolo(regexB)
			if err != nil {
				return nil, err
			}
			truth := ms[0].Throughput
			y.add(yModel.Predict(traffic.Default, []core.Competitor{
				core.CompetitorFromMeasurement(memSolo),
				core.CompetitorFromMeasurement(regexSolo),
			}).Throughput, truth)
			var agg nicsim.Counters
			agg.Add(memSolo.Counters)
			agg.Add(regexSolo.Counters)
			s.add(sModel.Predict(agg), truth)
		}
		rows = append(rows, []string{
			name,
			f1(s.mape()), f1(s.acc5()), f1(s.acc10()),
			f1(y.mape()), f1(y.acc5()), f1(y.acc10()),
		})
	}
	r.table([]string{"NF", "SLOMO MAPE%", "±5%", "±10%", "Yala MAPE%", "±5%", "±10%"}, rows)
	return r, nil
}

// Table4 reproduces the composition comparison: sum vs min vs Yala's
// execution-pattern composition for NF1 and NF2 in both patterns.
func Table4(l *Lab) (*Report, error) {
	r := &Report{ID: "table4", Title: "Composition MAPE% by execution pattern"}
	var rows [][]string
	for _, name := range []string{"NF1", "NF2"} {
		for _, pattern := range []nicsim.ExecPattern{nicsim.Pipeline, nicsim.RunToCompletion} {
			res, err := l.synthComposition(name, pattern)
			if err != nil {
				return nil, err
			}
			rows = append(rows, []string{
				name, pattern.String(),
				f1(res[core.ComposeSum]),
				f1(res[core.ComposeMin]),
				f1(res[core.ForPattern(pattern)]),
			})
		}
	}
	r.table([]string{"NF", "pattern", "sum", "min", "Yala"}, rows)
	return r, nil
}

// Table5 reproduces the traffic-awareness comparison: memory-only
// contention with random traffic profiles for the traffic-sensitive NFs.
func Table5(l *Lab) (*Report, error) {
	return l.table5On("table5", []string{
		"NIDS", "FlowClassifier", "NAT", "FlowTracker", "FlowStats", "FlowMonitor", "IPTunnel",
	})
}

// table5On runs the Table 5 protocol for a set of NFs (Table 9 reuses it
// on the Pensando preset).
func (l *Lab) table5On(id string, names []string) (*Report, error) {
	r := &Report{ID: id, Title: "Accuracy under memory contention + dynamic traffic"}
	rng := sim.NewRNG(l.Seed ^ 0x7ab5)
	var rows [][]string
	for _, name := range names {
		yModel, err := l.Yala(name)
		if err != nil {
			return nil, err
		}
		sModel, err := l.SLOMO(name)
		if err != nil {
			return nil, err
		}
		var y, s accStats
		for i := 0; i < l.n(50, 15); i++ {
			prof := traffic.Random(rng)
			w, err := l.TB.Workload(name, prof)
			if err != nil {
				return nil, err
			}
			car, wss := rng.Range(40e6, 200e6), rng.Range(1<<20, 14<<20)
			truth, err := l.TB.WithMemBench(w, car, wss)
			if err != nil {
				return nil, err
			}
			benchSolo, err := l.TB.RunSolo(nfbench.MemBench(car, wss))
			if err != nil {
				return nil, err
			}
			y.add(yModel.Predict(prof, []core.Competitor{
				core.CompetitorFromMeasurement(benchSolo),
			}).Throughput, truth.Throughput)
			soloNew, err := l.soloAt(name, prof)
			if err != nil {
				return nil, err
			}
			s.add(sModel.PredictExtrapolated(benchSolo.Counters, soloNew), truth.Throughput)
		}
		rows = append(rows, []string{
			name,
			f1(s.mape()), f1(s.acc5()), f1(s.acc10()),
			f1(y.mape()), f1(y.acc5()), f1(y.acc10()),
		})
	}
	r.table([]string{"NF", "SLOMO MAPE%", "±5%", "±10%", "Yala MAPE%", "±5%", "±10%"}, rows)
	return r, nil
}

// Table6 reproduces the contention-aware scheduling use case: resource
// wastage vs an oracle packing and SLA violations per strategy.
func Table6(l *Lab) (*Report, error) {
	r := &Report{ID: "table6", Title: "NF placement: resource wastage and SLA violations"}
	names := nf.Table1Names()
	ps := placement.NewSimulator(l.TB)
	for _, n := range names {
		ym, err := l.Yala(n)
		if err != nil {
			return nil, err
		}
		ps.SetModel("yala", n, backend.WrapYala(ym))
		sm, err := l.SLOMO(n)
		if err != nil {
			return nil, err
		}
		ps.SetModel("slomo", n, backend.WrapSLOMO(sm))
	}

	rng := sim.NewRNG(l.Seed ^ 0x7ab6)
	sequences := l.n(12, 3)
	arrivals := l.n(60, 24)
	// Strategies share the simulator's co-run cache and testbed, whose
	// runs are numbered in call order: they must run in a fixed order.
	strategies := []placement.Strategy{
		placement.Monopolization, placement.Greedy, placement.SLOMOAware, placement.YalaAware,
	}
	type agg struct{ wastage, violations, runs float64 }
	sums := make([]agg, len(strategies))
	for seq := 0; seq < sequences; seq++ {
		var arr []placement.Arrival
		for i := 0; i < arrivals; i++ {
			arr = append(arr, placement.Arrival{
				Name:    names[rng.Intn(len(names))],
				Profile: traffic.Default,
				SLA:     0.05 + 0.15*rng.Float64(),
			})
		}
		oracle, err := ps.Place(arr, placement.Oracle)
		if err != nil {
			return nil, err
		}
		for i, st := range strategies {
			res, err := ps.Place(arr, st)
			if err != nil {
				return nil, err
			}
			a := &sums[i]
			a.wastage += 100 * float64(res.NICsUsed-oracle.NICsUsed) / float64(oracle.NICsUsed)
			a.violations += 100 * float64(res.Violations) / float64(res.Total)
			a.runs++
		}
	}
	var rows [][]string
	for i, st := range strategies {
		a := sums[i]
		rows = append(rows, []string{
			st.String(), f1(a.wastage / a.runs), f1(a.violations / a.runs),
		})
	}
	r.table([]string{"strategy", "resource wastage %", "SLA violations %"}, rows)
	r.addf("(wastage vs. oracle first-fit packing with ground-truth feasibility checks;")
	r.addf(" the paper's exhaustive-search optimum is NP-complete bin packing)")
	return r, nil
}

// Table7 reproduces the performance-diagnosis use case: correctness of
// bottleneck identification as MTBR sweeps 0→1100 under fixed contention.
func Table7(l *Lab) (*Report, error) {
	r := &Report{ID: "table7", Title: "Bottleneck identification correctness (%)"}
	memB := nfbench.MemBench(120e6, 10<<20)
	regexB := nfbench.RegexBench(0.58e6, 1000, 2000, 1)
	memSolo, err := l.TB.RunSolo(memB)
	if err != nil {
		return nil, err
	}
	regexSolo, err := l.TB.RunSolo(regexB)
	if err != nil {
		return nil, err
	}
	comps := []core.Competitor{
		core.CompetitorFromMeasurement(memSolo),
		core.CompetitorFromMeasurement(regexSolo),
	}
	mtbrs := []float64{0, 40, 80, 200, 400, 600, 800, 900, 1000, 1100}

	var rows [][]string
	for _, name := range []string{"FlowStats", "FlowMonitor", "IPCompGateway"} {
		model, err := l.Yala(name)
		if err != nil {
			return nil, err
		}
		var yv, sv []diagnose.Verdict
		for _, mtbr := range mtbrs {
			prof := traffic.Default.With(traffic.AttrMTBR, mtbr)
			w, err := l.TB.Workload(name, prof)
			if err != nil {
				return nil, err
			}
			ms, err := l.TB.Run(w, memB, regexB)
			if err != nil {
				return nil, err
			}
			actual := ms[0].Bottleneck
			// CPU-bound cases count as memory-side for both predictors
			// (the paper's hotspot buckets are memory vs accelerator).
			if actual == nicsim.ResCPU {
				actual = nicsim.ResMemory
			}
			yd := diagnose.YalaDiagnosis(model, prof, comps, actual)
			if yd.Predicted == nicsim.ResCPU {
				yd.Predicted = nicsim.ResMemory
			}
			yv = append(yv, yd)
			sv = append(sv, diagnose.SLOMODiagnosis(actual))
		}
		rows = append(rows, []string{name, f1(diagnose.Accuracy(sv)), f1(diagnose.Accuracy(yv))})
	}
	r.table([]string{"NF", "SLOMO", "Yala"}, rows)
	return r, nil
}

// Table8 reproduces the profiling cost/accuracy comparison for the
// traffic-sensitive NFs: full vs random vs adaptive profiling.
func Table8(l *Lab) (*Report, error) {
	r := &Report{ID: "table8", Title: "Profiling cost vs model accuracy (MAPE%)"}
	quota := l.n(400, 120)
	var rows [][]string
	for _, name := range []string{"FlowClassifier", "NAT", "FlowTracker", "FlowMonitor", "FlowStats", "IPTunnel"} {
		fullM, err := l.profiledMAPE(name, planFull, 0)
		if err != nil {
			return nil, err
		}
		randM, err := l.profiledMAPE(name, planRandom, quota)
		if err != nil {
			return nil, err
		}
		adapM, err := l.profiledMAPE(name, planAdaptive, quota)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{name, f1(fullM), f1(randM), f1(adapM)})
	}
	r.table([]string{"NF", "full (reduced grid)", "random 1x", "adaptive 1x"}, rows)
	return r, nil
}

// Table9 reproduces the generalization study: the Firewall flow-walk NF
// on the Pensando SoC preset, memory contention + dynamic traffic.
func Table9(seed uint64, scale float64) (*Report, error) {
	lab := NewLabOn(nicsim.Pensando(), seed, scale)
	rep, err := lab.table5On("table9", []string{"Firewall"})
	if err != nil {
		return nil, err
	}
	rep.Title = "Generalization: Firewall on the Pensando SoC preset"
	return rep, nil
}

// Run runs one experiment in a lab of its own, so its report is a
// function of (id, seed, scale) alone: not of which experiments ran
// before it, whose testbed run counter and model caches a shared lab
// would carry over.
func Run(id string, seed uint64, scale float64) (*Report, error) {
	return ByID(NewLab(seed, scale), id)
}

// ByID runs one experiment by identifier in the given lab.
func ByID(l *Lab, id string) (*Report, error) {
	switch id {
	case "fig1":
		return Fig1(l)
	case "fig2":
		return Fig2(l)
	case "fig3":
		return Fig3(l)
	case "fig4":
		return Fig4(l)
	case "fig5":
		return Fig5(l)
	case "fig6":
		return Fig6(l)
	case "fig7":
		return Fig7(l)
	case "fig8":
		return Fig8(l)
	case "table2":
		return Table2(l)
	case "table3":
		return Table3(l)
	case "table4":
		return Table4(l)
	case "table5":
		return Table5(l)
	case "table6":
		return Table6(l)
	case "table7":
		return Table7(l)
	case "table8":
		return Table8(l)
	case "table9":
		return Table9(l.Seed, l.Scale)
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// IDs lists all experiment identifiers in paper order.
func IDs() []string {
	return []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"table2", "table3", "table4", "table5", "table6", "table7", "table8", "table9",
	}
}
