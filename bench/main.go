// Command bench is the repository's benchmark of record: one command,
// four workloads, and a ladder of per-layer timings under each.
//
//	go run ./bench                                  # everything, traced and untraced
//	go run ./bench -workload serve-hot -seed 7      # one workload, one seed
//	go run ./bench -workload serve-hot -trace 1     # its per-layer rows only
//	go run ./bench -compare a.json b.json           # two records, metric by metric
//
// Servers, gateway and load generator run in this one process over real
// loopback TCP, so client and servers share the cores; every layer is
// measured from outside, by timing calls into its exported functions and
// reading the counters it already exports. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// driverLine is the last line of standard output: the run's result in
// the shape the benchmark driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload (serve-hot, serve-novel, gateway-mix, fleet-sched); default all")
	seed := fs.Uint64("seed", 1, "workload seed: drives the generated inputs only, models always train with seed 1")
	seconds := fs.Int("seconds", 15, "length of the measured window")
	trace := fs.String("trace", "both", "0: end-to-end metrics from an untraced run; 1: per-layer rows from a traced run; both")
	quick := fs.Bool("quick", false, "smoke-test sizes: tiny models, one-second windows, a 64-NIC fleet")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for result.json and the span files")
	procs := fs.Int("procs", 0, "GOMAXPROCS; default min(nproc, 2)")
	clients := fs.Int("clients", maxClients, "load-generating goroutines")
	update := fs.Bool("update-expected", false, "rewrite bench/expected/ from this run's seed-1 fleet-sched outcome instead of checking against it")
	compare := fs.Bool("compare", false, "compare two result.json files given as arguments instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result.json paths")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	// The harness refuses settings that would measure something else:
	// more OS threads than cores, or more clients than the box can drive
	// without starving the servers it shares cores with.
	if *procs == 0 {
		*procs = min(runtime.NumCPU(), 2)
	}
	if *procs < 1 || *procs > runtime.NumCPU() {
		fmt.Fprintf(stderr, "bench: -procs %d outside [1, nproc=%d]\n", *procs, runtime.NumCPU())
		return 2
	}
	if *clients < 1 || *clients > maxClients {
		fmt.Fprintf(stderr, "bench: -clients %d outside [1, %d]\n", *clients, maxClients)
		return 2
	}
	if *seconds < 1 || (*trace != "0" && *trace != "1" && *trace != "both") {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -trace one of 0, 1, both")
		return 2
	}
	defs := workloads
	if *workload != "" {
		def, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		defs = []workloadDef{def}
	}
	runtime.GOMAXPROCS(*procs)

	cfg := fullConfig(*seed, *seconds)
	if *quick {
		cfg = quickConfig(*seed)
	}
	cfg.Clients, cfg.OutDir, cfg.UpdateExpected = *clients, *out, *update
	if cfg.ModelDir == "" {
		kind := "full"
		if cfg.Quick {
			kind = "quick"
		}
		dir, err := defaultModelDir(kind)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		cfg.ModelDir = dir
	}
	return runAll(cfg, defs, *trace, stdout, stderr)
}

// runAll trains or loads the shared models, runs each workload, prints
// every metric, writes the record, and ends standard output with the
// driver line. The exit code is non-zero when any check failed.
func runAll(cfg *config, defs []workloadDef, trace string, stdout, stderr io.Writer) int {
	if err := ensureModels(cfg, stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var results []workloadResult
	line := driverLine{Correct: true, Metrics: map[string]driverValue{}}
	for _, def := range defs {
		res, err := runWorkload(def, cfg, trace, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		printResult(stdout, res)
		results = append(results, res)
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		// With several workloads in one invocation the line carries the
		// last one's values; the driver always asks for one.
		for _, m := range endToEnd {
			if v, ok := res.EndToEnd[m.Name]; ok {
				line.Metrics[m.Name] = driverValue{v, m.Unit}
			}
		}
		for _, m := range perLayer {
			if v, ok := res.PerLayer[m.Name]; ok {
				line.Metrics[m.Name] = driverValue{v, m.Unit}
			}
		}
	}
	path, err := newRecord(cfg, results).write(cfg.OutDir)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nrecord: %s\n", path)
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if !line.Correct {
		fmt.Fprintln(stderr, "bench: output verification failed")
		return 1
	}
	return 0
}

func compareFiles(a, b string, stdout, stderr io.Writer) int {
	base, err := readRecord(a)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	next, err := readRecord(b)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if n := compareRecords(stdout, base, next); n > 0 {
		fmt.Fprintf(stderr, "bench: %d (workload, metric) pairs regressed\n", n)
		return 1
	}
	return 0
}
