package repro

import (
	"context"
	"maps"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gateway"
	"repro/internal/nicsim"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tenant"
)

// TestMetricCatalog holds README's "Metric families by tier" table to
// the families the serving tiers' live registries expose: a replica
// with the tenant gate mounted and a cluster run's scheduler telemetry
// on its registry, and an elastic gateway. A family the code registers
// but the table lacks fails, and so does a row that names a family no
// registry exposes.
func TestMetricCatalog(t *testing.T) {
	documented := readmeFamilies(t)

	live := map[string]bool{}
	gate := tenant.NewGate(tenant.AnonymousOnly(), tenant.GateConfig{})
	svc := serve.NewService(serve.ServiceConfig{Registry: serve.RegistryConfig{Dir: t.TempDir()}, Gate: gate})
	defer svc.Close()
	env := cluster.NewEnv(nicsim.BlueField2(), 1, svc.Registry())
	env.SetObs(svc.Obs())
	sched, err := cluster.NewScheduler("yala", env, 1)
	if err != nil {
		t.Fatal(err)
	}
	// An empty stream registers the run's decision histogram and ends.
	if _, err := env.RunPolicyStream(context.Background(), cluster.Scenario{NICs: 1}, nil, sched); err != nil {
		t.Fatal(err)
	}
	addFamilies(t, live, svc.Obs())

	g, as, err := gateway.NewElastic(gateway.Config{}, serve.ServiceConfig{Registry: serve.RegistryConfig{Dir: t.TempDir()}},
		gateway.AutoscaleConfig{Min: 1, Max: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	defer as.Close()
	addFamilies(t, live, g.Obs())

	for _, f := range slices.Sorted(maps.Keys(live)) {
		if !documented[f] {
			t.Errorf("family %s is registered but has no row in README's metric table", f)
		}
	}
	for _, f := range slices.Sorted(maps.Keys(documented)) {
		if !live[f] {
			t.Errorf("README's metric table names %s, which no registry exposes", f)
		}
	}
}

// addFamilies adds the families reg exposes to into.
func addFamilies(t *testing.T, into map[string]bool, reg *obs.Registry) {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for f := range exp.Types {
		into[f] = true
	}
}

var (
	// labelBlock is a row's label selector, "{verb=}" or "{tenant=,reason=}".
	labelBlock = regexp.MustCompile(`\{[^{}]*=[^{}]*\}`)
	// group is a family-name group to expand, "{hits,misses}".
	group = regexp.MustCompile(`\{([^{}]*)\}`)
)

// readmeFamilies reads the family names of README's metric table,
// label selectors dropped and every {a,b} group expanded.
func readmeFamilies(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(data), "Metric families by tier:")
	if !ok {
		t.Fatal(`README has no "Metric families by tier:" table`)
	}
	out := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(table), "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, "|")
		if len(cells) < 2 || !strings.Contains(cells[1], "`") {
			continue // the header and its rule
		}
		names := strings.Split(cells[1], "`")
		for i := 1; i < len(names); i += 2 {
			for _, f := range expand(labelBlock.ReplaceAllString(names[i], "")) {
				out[f] = true
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("README's metric table names no family")
	}
	return out
}

// expand spells out every {a,b} group of a family pattern.
func expand(pattern string) []string {
	loc := group.FindStringSubmatchIndex(pattern)
	if loc == nil {
		return []string{pattern}
	}
	var out []string
	for _, alt := range strings.Split(pattern[loc[2]:loc[3]], ",") {
		out = append(out, expand(pattern[:loc[0]]+alt+pattern[loc[1]:])...)
	}
	return out
}
