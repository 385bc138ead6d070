package repro

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its experiment at a reduced
// protocol scale (the full protocol runs via cmd/experiments) and reports
// wall time per regeneration. Run with:
//
//	go test -bench=. -benchmem
//
// The per-iteration work includes offline model training where the
// experiment requires it, exactly as the paper's protocol does.

import (
	"testing"

	"repro/internal/experiments"
)

// benchScale keeps per-iteration cost tractable; cmd/experiments runs the
// full protocol.
const benchScale = 0.05

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, uint64(i)+1, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Lines) == 0 {
			b.Fatalf("%s produced an empty report", id)
		}
	}
}

func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B) { benchExperiment(b, "table7") }
func BenchmarkTable8(b *testing.B) { benchExperiment(b, "table8") }
func BenchmarkTable9(b *testing.B) { benchExperiment(b, "table9") }

// BenchmarkAblationAccelGBR contrasts Yala's white-box accelerator model
// against treating the accelerator as a black box (no queueing structure):
// it regenerates the Table 3 protocol, whose SLOMO column is exactly the
// black-box-only ablation.
func BenchmarkAblationAccelGBR(b *testing.B) { benchExperiment(b, "table3") }
