// Command experiments regenerates the paper's tables and figures on the
// simulated testbed and prints them in paper-style form.
//
// Usage:
//
//	experiments [-run id] [-scale f] [-seed n]
//
// With no -run flag every experiment runs in paper order. Each runs in a
// lab of its own (experiments.Run), so -run table2 prints the Table 2 the
// full suite prints. -scale trades sample counts for runtime (1.0 = full
// protocol).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	run := flag.String("run", "", "experiment id (fig1..fig8, table2..table9); empty = all")
	scale := flag.Float64("scale", 1.0, "protocol scale factor (sample counts)")
	seed := flag.Uint64("seed", 1, "experiment seed")
	flag.Parse()

	ids := experiments.IDs()
	if *run != "" {
		ids = []string{*run}
	}
	start := time.Now()
	for _, id := range ids {
		rep, err := experiments.Run(id, *seed, *scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(rep)
	}
	fmt.Printf("(completed in %s, scale %.2f, seed %d)\n", time.Since(start).Round(time.Second), *scale, *seed)
}
