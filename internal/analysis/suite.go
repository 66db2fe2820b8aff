package analysis

// The program-level driver. RunSuite is what cmd/vread-lint's standalone
// mode and the analysistest harness call: it loads nothing itself (callers
// bring a []*Package from Load or a fixture loader), builds the shared call
// graph once, merges //lint:allow suppressions across every file of every
// package — keyed by full path, so same-named files in different packages
// cannot suppress each other's findings — and runs per-package analyzers on
// each package and program analyzers on the whole.

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"time"
)

// Program is one loaded set of packages plus the interprocedural state the
// program analyzers share.
type Program struct {
	Fset *token.FileSet
	// Pkgs is sorted by import path.
	Pkgs []*Package

	graph *CallGraph
}

// NewProgram assembles a Program from loaded packages. All packages must
// share one *token.FileSet (Load and the fixture loader guarantee this).
func NewProgram(pkgs []*Package) *Program {
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	var fset *token.FileSet
	if len(sorted) > 0 {
		fset = sorted[0].Fset
	}
	return &Program{Fset: fset, Pkgs: sorted}
}

// Graph returns the program's call graph, building it on first use.
func (prog *Program) Graph() *CallGraph {
	if prog.graph == nil {
		prog.graph = BuildCallGraph(prog)
	}
	return prog.graph
}

// Package returns the loaded package with the given import path, or nil.
func (prog *Program) Package(path string) *Package {
	for _, p := range prog.Pkgs {
		if p.Path == path {
			return p
		}
	}
	return nil
}

// ProgramPass carries the whole program through one program analyzer.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program
	Graph    *CallGraph

	diags *[]Diagnostic
	kept  *[]token.Pos
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// KeepAllow marks this analyzer's //lint:allow directive at pos as used
// although no finding landed on it: a function-level directive that changed
// the analysis (a hotalloc cold boundary that stopped propagation) is doing
// its job, and the stale-suppression report must not ask for its deletion.
func (p *ProgramPass) KeepAllow(pos token.Pos) {
	*p.kept = append(*p.kept, pos)
}

// IsTestFile reports whether pos lies in a test file of any program package
// — by filename suffix, or by landing in a parsed TestFiles entry, or in a
// type-checked file whose package clause names an external test package.
func (p *ProgramPass) IsTestFile(pos token.Pos) bool {
	if strings.HasSuffix(p.Prog.Fset.Position(pos).Filename, "_test.go") {
		return true
	}
	for _, pkg := range p.Prog.Pkgs {
		for _, f := range pkg.TestFiles {
			if f.FileStart <= pos && pos < f.FileEnd {
				return true
			}
		}
		for _, f := range pkg.Files {
			if f.FileStart <= pos && pos < f.FileEnd {
				return strings.HasSuffix(f.Name.Name, "_test")
			}
		}
	}
	return false
}

// RunSuite applies the analyzers — per-package and program-level — to the
// program and returns the surviving findings sorted by position. One merged
// suppression index spans every file (sources and test files of every
// package); because it is keyed by the file's full path as recorded in the
// FileSet, a //lint:allow in pkg/a/util.go can never mask a finding in
// pkg/b/util.go.
func RunSuite(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := runSuite(prog, analyzers, false)
	return diags, err
}

// RunSuiteUnused is RunSuite plus stale-suppression reporting: every
// //lint:allow naming one of the ran analyzers that suppressed nothing comes
// back as an "unused-allow" diagnostic. Callers should pass the full suite —
// under a subset, allows for the analyzers that did not run are skipped, not
// reported.
func RunSuiteUnused(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := runSuite(prog, analyzers, true)
	return diags, err
}

// RunSuiteTimed is RunSuite (or RunSuiteUnused when reportUnused is set)
// plus one wall-clock timing row per analyzer, in suite order, for the
// versioned report. Suppressed findings do not count toward a row's
// finding total.
func RunSuiteTimed(prog *Program, analyzers []*Analyzer, reportUnused bool) ([]Diagnostic, []AnalyzerTiming, error) {
	return runSuite(prog, analyzers, reportUnused)
}

func runSuite(prog *Program, analyzers []*Analyzer, reportUnused bool) ([]Diagnostic, []AnalyzerTiming, error) {
	var all []*ast.File
	for _, pkg := range prog.Pkgs {
		all = append(all, pkg.Files...)
		all = append(all, pkg.TestFiles...)
	}
	sup, bad := buildSuppressions(prog.Fset, all)
	diags := bad
	timings := make([]AnalyzerTiming, 0, len(analyzers))

	for _, a := range analyzers {
		start := time.Now() //lint:allow determinism(wall-clock timing rows measure the analyzers, not the simulation)
		var out []Diagnostic
		if a.RunProgram != nil {
			var kept []token.Pos
			pass := &ProgramPass{Analyzer: a, Prog: prog, Graph: prog.Graph(), diags: &out, kept: &kept}
			if err := a.RunProgram(pass); err != nil {
				return nil, nil, fmt.Errorf("%s: %v", a.Name, err)
			}
			for _, pos := range kept {
				sup.keep(a.Name, prog.Fset.Position(pos))
			}
		} else {
			for _, pkg := range prog.Pkgs {
				pass := &Pass{
					Analyzer:  a,
					Fset:      pkg.Fset,
					Files:     pkg.Files,
					Pkg:       pkg.Types,
					TypesInfo: pkg.TypesInfo,
					diags:     &out,
				}
				if err := a.Run(pass); err != nil {
					return nil, nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
				}
			}
		}
		kept := 0
		for _, d := range out {
			if !sup.suppressed(d) {
				diags = append(diags, d)
				kept++
			}
		}
		timings = append(timings, AnalyzerTiming{
			Analyzer: a.Name,
			Millis:   time.Since(start).Milliseconds(), //lint:allow determinism(wall-clock timing rows measure the analyzers, not the simulation)
			Findings: kept,
		})
	}
	if reportUnused {
		ran := make(map[string]bool, len(analyzers))
		for _, a := range analyzers {
			ran[a.Name] = true
		}
		diags = append(diags, sup.unused(ran)...)
	}
	sortDiagnostics(diags)
	return diags, timings, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Message < diags[j].Message
	})
}
