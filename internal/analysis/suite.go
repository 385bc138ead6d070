package analysis

import (
	"fmt"
	"io"
)

// Report is the machine-readable result of one suite run — the shape
// `yala lint -json` emits.
type Report struct {
	// Findings is never null in JSON: an empty run marshals as [].
	Findings []Finding `json:"findings"`
	Packages int       `json:"packages"`
}

// DefaultAnalyzers returns fresh instances of the full suite — fresh
// because analyzers with a Finish hook carry per-run state.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		Detmap(),
		Wallclock(),
		Boundedread(),
		Envelope(),
		Metricname(),
		Bodyclose(),
		Unusedexport(),
	}
}

// Run loads the packages matched by patterns (relative to modRoot) and
// runs every analyzer over them, returning findings after ignore
// filtering and stale-ignore promotion. A non-nil error means the suite
// could not run at all; findings alone never produce an error.
func Run(modRoot string, patterns []string, analyzers []*Analyzer) (Report, error) {
	loader, err := NewLoader(modRoot)
	if err != nil {
		return Report{}, err
	}
	dirs, err := loader.Expand(modRoot, patterns)
	if err != nil {
		return Report{}, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir, "")
		if err != nil {
			return Report{}, err
		}
		pkgs = append(pkgs, pkg)
	}
	findings := RunPackages(loader, pkgs, analyzers, modRoot)
	return Report{Findings: findings, Packages: len(pkgs)}, nil
}

// RunPackages runs analyzers over already-loaded packages. root anchors
// the file paths in findings. Exposed separately so golden tests can
// load fixture packages under assumed import paths.
func RunPackages(loader *Loader, pkgs []*Package, analyzers []*Analyzer, root string) []Finding {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var findings []Finding
	var ignores []*ignore
	lintRep := &Reporter{fset: loader.fset, root: root, analyzer: "yalalint"}
	for _, pkg := range pkgs {
		ignores = append(ignores, collectIgnores(pkg, known, lintRep)...)
		for _, a := range analyzers {
			rep := &Reporter{fset: pkg.Fset, root: root, analyzer: a.Name}
			a.Run(&Pass{Pkg: pkg, Loader: loader, r: rep})
			findings = append(findings, rep.findings...)
		}
	}
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		rep := &Reporter{fset: loader.fset, root: root, analyzer: a.Name}
		a.Finish(rep)
		findings = append(findings, rep.findings...)
	}
	findings = applyIgnores(findings, ignores)
	reportStale(ignores, lintRep)
	findings = append(findings, lintRep.findings...)
	findings = dedupe(findings)
	sortFindings(findings)
	if findings == nil {
		findings = []Finding{}
	}
	return findings
}

// dedupe drops exact-duplicate findings (a directive on line L also
// guarding L+1 can otherwise double-match nothing, but two analyzers or
// a re-walked node must not double-report one site).
func dedupe(fs []Finding) []Finding {
	seen := map[Finding]bool{}
	out := fs[:0]
	for _, f := range fs {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

// WriteText renders findings one per line in file:line:col form.
func WriteText(w io.Writer, findings []Finding) {
	for _, f := range findings {
		fmt.Fprintln(w, f.String())
	}
}
