// Package analysis is hccsim's project-specific static-analysis engine: a
// small analyzer framework on the standard library's go/ast + go/types
// (zero external dependencies, so it runs offline) plus the five invariant
// checks behind `make check`:
//
//	nondeterminism  deterministic packages must not read the wall clock,
//	                use the global math/rand source, or iterate maps in
//	                unsorted order — every figure in REPORT.md must
//	                re-derive bit-identically.
//	hashcomplete    every field of the configuration hashed into the batch
//	                cache key must survive json.Marshal; a dropped field is
//	                a stale-cache hazard.
//	unitsuffix      numeric latency/bandwidth/size knobs in Params/Config
//	                calibration types must carry a unit suffix (NS, GBps,
//	                Bytes, Pages, ...), since Go's type system cannot catch
//	                an ns-vs-µs mix-up on a bare int.
//	unitflow        dimensional analysis over go/types: units seeded from
//	                suffixes, time.Duration, and //hcclint:unit annotations
//	                are propagated through expressions, and mixed-unit
//	                arithmetic, wrong-unit assignments/arguments/returns,
//	                and open-coded scale conversions are reported.
//	panicpolicy     library code may only panic from Must*-named helpers or
//	                functions whose doc comment states the panic contract;
//	                everything else returns an error.
//
// A diagnostic can be suppressed with a directive on, or on the line
// above, the offending line:
//
//	//hcclint:ignore <analyzer> <reason>
//
// The reason is mandatory: a suppression without one, one that names no
// known analyzer, or one that matches no diagnostic is itself reported (as
// analyzer "hcclint"). cmd/hcclint is the command-line driver.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one finding: a position, the analyzer that produced it, a
// message, and optionally machine-applicable fixes. The driver renders it
// as "file:line: [analyzer] message".
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Fixes are optional edits that resolve the finding; cmd/hcclint -fix
	// applies them (see ApplyFixes).
	Fixes []SuggestedFix
}

// key is the identity of a diagnostic for dedupe and suppression — fixes
// do not participate.
func (d Diagnostic) key() diagKey {
	return diagKey{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message}
}

type diagKey struct {
	file      string
	line, col int
	analyzer  string
	message   string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Analyzer is one invariant check.
type Analyzer struct {
	// Name tags diagnostics and is the key suppression directives use.
	Name string
	// Doc is a one-line description for the driver's -list output.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// All lists every analyzer in the order the driver runs them.
var All = []*Analyzer{Nondeterminism, HashComplete, UnitSuffix, UnitFlow, PanicPolicy}

// Pass hands one package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Path is the package import path ("hccsim/internal/batch").
	Path string
	// Deterministic marks packages whose outputs must be bit-reproducible
	// (see DeterministicPackages); nondeterminism only fires in these.
	Deterministic bool
	// Library marks non-main module packages; panicpolicy, unitsuffix, and
	// unitflow only fire in these.
	Library bool
	// Units is the module-wide //hcclint:unit annotation index, built once
	// per Run from every loaded package so annotations propagate across
	// package boundaries.
	Units *UnitIndex

	out *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.out = append(*p.out, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportFix records a diagnostic carrying a machine-applicable fix.
func (p *Pass) ReportFix(pos token.Pos, fix SuggestedFix, format string, args ...any) {
	*p.out = append(*p.out, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Fixes:    []SuggestedFix{fix},
	})
}

// DeterministicPackages are the packages every REPORT.md figure re-derives
// through: any wall-clock or iteration-order dependence here silently
// changes published numbers. That includes internal/trace, the analyzer
// behind every published KLO/LQT/KQT/KET, and each layer that records into
// it. internal/swcrypto is included because its
// calibration tables feed fig4a/fig4b; its explicitly wall-clock Measure*
// entry points are the one sanctioned boundary (see Nondeterminism).
var DeterministicPackages = map[string]bool{
	"hccsim":                     true,
	"hccsim/internal/sim":        true,
	"hccsim/internal/sim/eventq": true,
	"hccsim/internal/core":       true,
	"hccsim/internal/ccmode":     true,
	"hccsim/internal/batch":      true,
	"hccsim/internal/figures":    true,
	"hccsim/internal/obs":        true,
	"hccsim/internal/serve":      true,
	"hccsim/internal/uvm":        true,
	"hccsim/internal/swcrypto":   true,
	"hccsim/internal/platform":   true,
	"hccsim/internal/trace":      true,
	"hccsim/internal/cuda":       true,
	"hccsim/internal/gpu":        true,
	"hccsim/internal/tdx":        true,
	"hccsim/internal/pcie":       true,
	"hccsim/internal/nn":         true,
	"hccsim/internal/workloads":  true,
}

// Classify derives the scope flags for a package import path.
func Classify(path string) (deterministic, library bool) {
	library = path == "hccsim" || strings.HasPrefix(path, "hccsim/internal/")
	return DeterministicPackages[path], library
}

// Run executes the analyzers over the packages, applies suppression
// directives, and returns the surviving diagnostics sorted by position. It
// parallelizes per package across GOMAXPROCS workers; see RunParallel.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return RunParallel(pkgs, analyzers, runtime.GOMAXPROCS(0))
}

// RunParallel is Run with an explicit worker count. Packages are analyzed
// concurrently (the shared FileSet and type info are read-only by then);
// diagnostics are collected per package and merged in package order, then
// sorted, so the output is byte-identical at any parallelism.
func RunParallel(pkgs []*Package, analyzers []*Analyzer, workers int) []Diagnostic {
	if workers < 1 {
		workers = 1
	}
	units := BuildUnitIndex(pkgs)
	perPkg := make([][]Diagnostic, len(pkgs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for _, a := range analyzers {
				a.Run(&Pass{
					Analyzer:      a,
					Fset:          pkg.Fset,
					Files:         pkg.Files,
					Pkg:           pkg.Pkg,
					Info:          pkg.Info,
					Path:          pkg.Path,
					Deterministic: pkg.Deterministic,
					Library:       pkg.Library,
					Units:         units,
					out:           &perPkg[i],
				})
			}
		}(i, pkg)
	}
	wg.Wait()
	var diags []Diagnostic
	for _, d := range perPkg {
		diags = append(diags, d...)
	}
	diags = dedupe(diags)
	diags = applySuppressions(pkgs, analyzers, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// dedupe drops exact repeats — hashcomplete anchors findings on field
// declarations, which several marshal sites can reach.
func dedupe(diags []Diagnostic) []Diagnostic {
	seen := make(map[diagKey]bool, len(diags))
	out := diags[:0]
	for _, d := range diags {
		if seen[d.key()] {
			continue
		}
		seen[d.key()] = true
		out = append(out, d)
	}
	return out
}

// directive is one parsed //hcclint:ignore comment.
type directive struct {
	pos      token.Position
	analyzer string
	reason   string
	used     bool
}

const directivePrefix = "hcclint:ignore"

// applySuppressions filters diagnostics covered by an ignore directive on
// the same or the preceding line, and reports directive-hygiene problems
// (missing reason, unknown analyzer name, directive that suppresses
// nothing) as diagnostics of the pseudo-analyzer "hcclint". The
// known-analyzer check matters because a typo'd name otherwise suppresses
// nothing silently — and when a finding happens to coincide on the line,
// the directive is never even flagged as unused.
func applySuppressions(pkgs []*Package, analyzers []*Analyzer, diags []Diagnostic) []Diagnostic {
	known := map[string]bool{"hcclint": true}
	for _, a := range All {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	byLine := make(map[string][]*directive) // "file:line" -> directives
	var all []*directive
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, directivePrefix) {
						continue
					}
					fields := strings.Fields(strings.TrimPrefix(text, directivePrefix))
					d := &directive{pos: pkg.Fset.Position(c.Pos())}
					if len(fields) > 0 {
						d.analyzer = fields[0]
					}
					if len(fields) > 1 {
						d.reason = strings.Join(fields[1:], " ")
					}
					all = append(all, d)
					key := fmt.Sprintf("%s:%d", d.pos.Filename, d.pos.Line)
					byLine[key] = append(byLine[key], d)
				}
			}
		}
	}

	var out []Diagnostic
	for _, diag := range diags {
		suppressed := false
		for _, line := range []int{diag.Pos.Line, diag.Pos.Line - 1} {
			key := fmt.Sprintf("%s:%d", diag.Pos.Filename, line)
			for _, d := range byLine[key] {
				if d.analyzer == diag.Analyzer && d.reason != "" {
					d.used = true
					suppressed = true
				}
			}
		}
		if !suppressed {
			out = append(out, diag)
		}
	}
	for _, d := range all {
		switch {
		case !known[d.analyzer]:
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: "hcclint",
				Message: fmt.Sprintf("suppression names unknown analyzer %q (known: %s) and suppresses nothing", d.analyzer, strings.Join(knownNames(known), ", "))})
		case d.reason == "":
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: "hcclint",
				Message: fmt.Sprintf("suppression of %q needs a reason: //hcclint:ignore %s <why this is safe>", d.analyzer, d.analyzer)})
		case !d.used:
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: "hcclint",
				Message: fmt.Sprintf("unused suppression: no %q diagnostic on this or the next line", d.analyzer)})
		}
	}
	return out
}

func knownNames(known map[string]bool) []string {
	names := make([]string, 0, len(known))
	for n := range known {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// pkgFunc reports whether the call/selector expression resolves to the
// package-level function pkgPath.name.
func pkgFunc(info *types.Info, e ast.Expr, pkgPath, name string) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}
