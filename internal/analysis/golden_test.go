package analysis

import (
	"encoding/json"
	"flag"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden files from current analyzer output:
//
//	go test ./internal/analysis -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// sharedLoader type-checks the standard library once for the whole test
// binary; fixtures load against it.
var sharedLoader *Loader

func loader(t *testing.T) *Loader {
	t.Helper()
	if sharedLoader == nil {
		l, err := NewLoader(filepath.Join("..", ".."))
		if err != nil {
			t.Fatal(err)
		}
		sharedLoader = l
	}
	return sharedLoader
}

// fixtureFindings runs the full suite (all analyzers plus the ignore
// machinery) over one testdata/src fixture loaded under asPath, with
// file paths relative to the fixture directory.
func fixtureFindings(t *testing.T, name, asPath string) []Finding {
	t.Helper()
	l := loader(t)
	dir := filepath.Join("testdata", "src", name)
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir, asPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s has type errors: %v", name, terr)
	}
	return RunPackages(l, []*Package{pkg}, DefaultAnalyzers(), abs)
}

// goldenCases maps each fixture to the import path it impersonates —
// determinism- and serving-critical paths for the analyzers that are
// package-scoped — and the analyzer whose coverage it must prove.
var goldenCases = []struct {
	name     string
	asPath   string
	analyzer string
}{
	{"detmap", "repro/internal/sim", "detmap"},
	{"wallclock", "repro/internal/cluster", "wallclock"},
	{"boundedread", "repro/fixture/boundedread", "boundedread"},
	{"envelope", "repro/internal/serve", "envelope"},
	{"envelopetenant", "repro/internal/tenant", "envelope"},
	{"metricname", "repro/fixture/metricname", "metricname"},
	{"bodyclose", "repro/fixture/bodyclose", "bodyclose"},
	{"ignores", "repro/internal/trace", "yalalint"},
	{"unusedexport", "repro/internal/unusedexport", "unusedexport"},
}

// TestGolden pins each analyzer's exact findings on its fixture. Every
// analyzer must flag at least once — a gate that cannot fail is not a
// gate — and the rendered findings must match the committed golden
// file byte for byte.
func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			findings := fixtureFindings(t, tc.name, tc.asPath)
			flagged := false
			for _, f := range findings {
				if f.Analyzer == tc.analyzer {
					flagged = true
					break
				}
			}
			if !flagged {
				t.Errorf("fixture %s produced no %s findings — the analyzer cannot fail", tc.name, tc.analyzer)
			}
			var b strings.Builder
			WriteText(&b, findings)
			goldenPath := filepath.Join("testdata", "golden", tc.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got := b.String(); got != string(want) {
				t.Errorf("findings drifted from golden file %s\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
			}
		})
	}
}

// TestIgnoreSelectivity pins the suppression semantics behaviorally,
// independent of golden formatting: suppressed lines stay quiet, the
// unsuppressed finding survives, and stale/unknown/malformed directives
// surface as yalalint findings.
func TestIgnoreSelectivity(t *testing.T) {
	findings := fixtureFindings(t, "ignores", "repro/internal/trace")
	byAnalyzer := map[string]int{}
	for _, f := range findings {
		byAnalyzer[f.Analyzer]++
	}
	if got := byAnalyzer["wallclock"]; got != 1 {
		t.Errorf("want exactly 1 surviving wallclock finding (the unsuppressed one), got %d: %v", got, findings)
	}
	if got := byAnalyzer["yalalint"]; got != 3 {
		t.Errorf("want 3 yalalint findings (stale, unknown analyzer, missing reason), got %d: %v", got, findings)
	}
}

// TestReportJSONShape pins the machine-readable -json contract: the
// exact key set and types consumers parse. A shape change here is an
// API break for CI tooling.
func TestReportJSONShape(t *testing.T) {
	rep := Report{
		Findings: []Finding{{File: "a/b.go", Line: 3, Col: 7, Analyzer: "detmap", Message: "m"}},
		Packages: 2,
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"findings":[{"file":"a/b.go","line":3,"col":7,"analyzer":"detmap","message":"m"}],"packages":2}`
	if string(data) != want {
		t.Errorf("report shape drifted:\n got %s\nwant %s", data, want)
	}
	empty, err := json.Marshal(Report{Findings: []Finding{}})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"findings":[],"packages":0}`; string(empty) != want {
		t.Errorf("empty report: got %s want %s", empty, want)
	}
}

// TestRepoIsClean runs the suite over the whole repository — the same
// gate CI runs. Any finding (including a stale ignore) fails.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo lint in -short mode")
	}
	rep, err := Run(filepath.Join("..", ".."), nil, DefaultAnalyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Findings {
		t.Errorf("%s", f)
	}
}

// TestUnusedexportSubsetRun: references come from the whole module, so
// linting one package alone flags none of the exports other packages
// use — although the package itself references some of its exports
// nowhere.
func TestUnusedexportSubsetRun(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module in -short mode")
	}
	root := filepath.Join("..", "..")
	rep, err := Run(root, []string{"./internal/nf"}, []*Analyzer{Unusedexport()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packages != 1 || len(rep.Findings) != 0 {
		t.Fatalf("linting ./internal/nf alone: %d packages, findings %v", rep.Packages, rep.Findings)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join(root, "internal", "nf"), "")
	if err != nil {
		t.Fatal(err)
	}
	own := map[types.Object]bool{}
	for _, obj := range pkg.Info.Uses {
		own[obj] = true
	}
	outside := 0
	for _, obj := range exportedDecls(pkg) {
		if !own[obj] {
			outside++
		}
	}
	if outside == 0 {
		t.Fatal("every nf export is used inside nf: the subset run proves nothing")
	}
}
