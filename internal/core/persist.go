package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/ml"
	"repro/internal/nicsim"
)

// Offline training is a one-time effort (§7.6); trained models persist as
// JSON so the online predictor can load them without re-profiling — the
// role of the paper artifact's models.pkl. modelFile is the file's one
// layout: Save writes it as compact JSON with one encode, and a load is
// one json.Unmarshal of the file's bytes into it, after which
// ml.NewGBR validates each regressor. Files written indented (as Save
// once did) differ only in whitespace and load to the same values.

// modelFile is the persisted form of a Model.
type modelFile struct {
	Name    string
	Pattern nicsim.ExecPattern
	Solo    *soloFile
	Mem     *memFile
	Accels  map[nicsim.AccelKind]*AccelModel
}

// soloFile is the persisted form of a SoloModel.
type soloFile struct {
	GBR ml.GBRForm `json:"gbr"`
}

// memFile is the persisted form of a MemModel.
type memFile struct {
	GBR          ml.GBRForm `json:"gbr"`
	TrafficAware bool       `json:"traffic_aware"`
}

// Save writes the model as compact JSON.
func (m *Model) Save(w io.Writer) error {
	f := modelFile{
		Name:    m.Name,
		Pattern: m.Pattern,
		Solo:    &soloFile{GBR: m.Solo.gbr.Form()},
		Mem:     &memFile{GBR: m.Mem.gbr.Form(), TrafficAware: m.Mem.trafficAware},
		Accels:  m.Accels,
	}
	if err := json.NewEncoder(w).Encode(f); err != nil {
		return fmt.Errorf("core: saving model %s: %w", m.Name, err)
	}
	return nil
}

// SaveFile writes the model to a file.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadModel reads a model saved with Save.
func LoadModel(r io.Reader) (*Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: loading model: %w", err)
	}
	return decodeModel(data)
}

// LoadModelFile reads a model from a file.
func LoadModelFile(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeModel(data)
}

// decodeModel builds the model a file's bytes describe, rejecting any
// that Predict could not evaluate.
func decodeModel(data []byte) (*Model, error) {
	var f modelFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("core: loading model: %w", err)
	}
	if f.Solo == nil || f.Mem == nil {
		return nil, fmt.Errorf("core: model %q missing solo or memory model", f.Name)
	}
	solo, err := ml.NewGBR(f.Solo.GBR)
	if err != nil {
		return nil, fmt.Errorf("core: model %q solo model: %w", f.Name, err)
	}
	mem, err := ml.NewGBR(f.Mem.GBR)
	if err != nil {
		return nil, fmt.Errorf("core: model %q memory model: %w", f.Name, err)
	}
	for kind, a := range f.Accels {
		if a == nil {
			return nil, fmt.Errorf("core: model %q has a null %v accelerator model", f.Name, kind)
		}
	}
	if f.Accels == nil {
		f.Accels = map[nicsim.AccelKind]*AccelModel{}
	}
	return &Model{
		Name:    f.Name,
		Pattern: f.Pattern,
		Solo:    &SoloModel{gbr: solo},
		Mem:     &MemModel{gbr: mem, trafficAware: f.Mem.TrafficAware},
		Accels:  f.Accels,
	}, nil
}
