// Package main exercises detmap on a command: loaded by the golden test
// as cmd/yala, where a report must print its lines in the same order
// every run. Wallclock does not cover commands, so the timing line is
// not flagged.
package main

import (
	"fmt"
	"time"
)

type resource int

type prediction struct {
	throughput  float64
	perResource map[resource]float64
}

// resourceOrder is the fixed order a report walks.
var resourceOrder = []resource{0, 1, 2}

// printLimits ranges the per-resource map — flagged: the limit lines
// come out in a different order between runs.
func printLimits(p prediction) {
	fmt.Printf("predicted %.3f Mpps\n", p.throughput/1e6)
	for res, t := range p.perResource {
		fmt.Printf("  %v limit %.3f Mpps\n", res, t/1e6)
	}
}

// printOrdered walks the fixed order — never flagged.
func printOrdered(p prediction) {
	for _, res := range resourceOrder {
		if t, ok := p.perResource[res]; ok {
			fmt.Printf("  %v limit %.3f Mpps\n", res, t/1e6)
		}
	}
}

func main() {
	start := time.Now()
	p := prediction{throughput: 1e6, perResource: map[resource]float64{0: 2e6, 1: 3e6}}
	printLimits(p)
	printOrdered(p)
	fmt.Printf("took %v\n", time.Since(start))
}
