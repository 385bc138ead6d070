package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// input share Op; Parent names the layer that would have made the call
// in a real request, so a layer's self time is its span minus its
// child's. Times are nanoseconds since the tracer started.
type span struct {
	Phase  string `json:"phase"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced windows run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(phase string, op int, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Phase: phase, Op: op, Name: name, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// rung times one ladder call and records it under the input's op id.
func (t *tracer) rung(op int, name, parent string, fn func()) {
	start := time.Now()
	fn()
	t.add("ladder", op, name, parent, start, time.Now())
}

// meanUS is the mean duration in microseconds of the ladder spans with
// the given name.
func (t *tracer) meanUS(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var total int64
	n := 0
	for _, s := range t.spans {
		if s.Phase == "ladder" && s.Name == name {
			total += s.End - s.Start
			n++
		}
	}
	return ratio(float64(total)/1e3, float64(n))
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Schema   string `json:"schema"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed uint64) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(traceFile{Schema: "yala-bench-trace/v1", Workload: workload, Seed: seed, Spans: t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
