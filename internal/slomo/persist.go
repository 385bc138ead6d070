package slomo

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/ml"
	"repro/internal/traffic"
)

// SLOMO models persist as JSON exactly like Yala's (core/persist.go), so
// the serving layer can load either predictor from a model directory
// without re-profiling: one compact encode of modelFile to save, one
// json.Unmarshal of the file's bytes into it to load.

// modelFile is the persisted form of a Model.
type modelFile struct {
	Name         string          `json:"name"`
	TrainProfile traffic.Profile `json:"train_profile"`
	SoloAtTrain  float64         `json:"solo_at_train"`
	GBR          ml.GBRForm      `json:"gbr"`
}

// Save writes the model as compact JSON.
func (m *Model) Save(w io.Writer) error {
	f := modelFile{Name: m.Name, TrainProfile: m.TrainProfile, SoloAtTrain: m.SoloAtTrain, GBR: m.gbr.Form()}
	if err := json.NewEncoder(w).Encode(f); err != nil {
		return fmt.Errorf("slomo: saving model %s: %w", m.Name, err)
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
		return nil, fmt.Errorf("slomo: loading model: %w", err)
	}
	g, err := ml.NewGBR(f.GBR)
	if err != nil {
		return nil, fmt.Errorf("slomo: model %q: %w", f.Name, err)
	}
	return &Model{Name: f.Name, TrainProfile: f.TrainProfile, SoloAtTrain: f.SoloAtTrain, gbr: g}, nil
}
