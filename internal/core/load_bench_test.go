package core_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/nicsim"
	"repro/internal/testbed"
)

// BenchmarkLoadModel times what every replica boot, :reload and
// promotion pays per model: loading one artifact of the size the serving
// registry trains by default (backend.QuickYalaConfig) from its file.
func BenchmarkLoadModel(b *testing.B) {
	model, err := core.NewTrainer(testbed.New(nicsim.BlueField2(), 1), backend.QuickYalaConfig(1)).Train("NIDS")
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "NIDS.yala.json")
	if err := model.SaveFile(path); err != nil {
		b.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(info.Size())
	b.ReportAllocs()
	for b.Loop() {
		if _, err := core.LoadModelFile(path); err != nil {
			b.Fatal(err)
		}
	}
}
