// Package repro is a from-scratch Go reproduction of "Performance
// Prediction of On-NIC Network Functions with Multi-Resource Contention
// and Traffic Awareness" (ASPLOS 2025): the Yala prediction framework,
// the network functions it models, and a simulated SoC SmartNIC standing
// in for the paper's BlueField-2 testbed.
//
// Prediction engines are pluggable: internal/backend defines the
// Backend interface (Train/Predict/Save/Load over an opaque Model
// handle) with self-registration, the built-in yala and slomo
// implementations, and an optional batched fast path; the model
// registry, HTTP layer, placement simulator and fleet scheduler consume
// predictions only through it. The serving subsystem exposes a
// versioned, resource-oriented /v2 HTTP API (hardware-qualified model
// resources, structured error envelopes, paginated listings; the flat
// /v1 endpoints were removed in PR 13), and pkg/yalaclient is the
// supported stdlib-only Go SDK for it.
// internal/gateway scales the serving tier out: `yala gateway` shards
// /v2 traffic across N serve replicas by rendezvous hashing on
// (NF, hardware class, backend), with health-checked transparent
// failover, reload fan-out (plus replay for replicas that were down),
// batch scatter/gather, and an edge response cache; `go run ./bench
// -workload gateway-mix` measures it (gateway.edge_hit_us,
// gateway.routed_us) beside the host's transport floor
// (floor.http_rtt_us).
//
// See README.md for the package map, CLI entry points, the online
// prediction-serving subsystem (internal/serve) and the cluster-scale
// fleet orchestrator (internal/cluster), which schedules churning NF
// lifecycles across fleets that mix hardware classes (BlueField-2 and
// Pensando presets, per-class model sets through the hardware-keyed
// model registry) under pluggable, prediction-guided placement policies
// whose decisions re-score only the NICs that changed since the last
// one. Workload streams come from pluggable generators
// (churn, diurnal, flashcrowd, heavytail) and can be frozen to
// versioned JSONL traces and replayed bit-identically (internal/trace);
// the committed golden trace plus expected per-policy reports gate
// determinism in CI, and the fleet-sched workload of the benchmark of
// record (bench/, BENCHMARK.json) gates scheduler decision cost. The
// benchmarks in bench_test.go regenerate each of the paper's
// experiments.
package repro
