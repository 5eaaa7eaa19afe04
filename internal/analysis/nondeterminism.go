package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Nondeterminism enforces bit-reproducibility in deterministic packages
// (DeterministicPackages): no wall-clock reads (time.Now/Since/Until), no
// global math/rand source, and no iteration over a map whose keys are not
// collected and sorted before use. Functions named Measure* are exempt —
// they are the project's documented wall-clock boundary (swcrypto.Measure
// times real crypto on the build machine; its figure, fig4b, is never
// cached, since figures are not batch jobs).
var Nondeterminism = &Analyzer{
	Name: "nondeterminism",
	Doc:  "forbid wall-clock, global rand, and unsorted map iteration in deterministic packages",
	Run:  runNondeterminism,
}

// wallClockFuncs read the host's clock; any of them makes output depend on
// when (and on what machine) the simulation ran.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// randConstructors build explicitly seeded generators and are therefore
// deterministic; everything else package-level in math/rand draws from the
// shared global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func runNondeterminism(p *Pass) {
	for _, f := range p.Files {
		if !p.Deterministic {
			continue
		}
		for _, decl := range f.Decls {
			fn, isFunc := decl.(*ast.FuncDecl)
			if isFunc && strings.HasPrefix(fn.Name.Name, "Measure") {
				continue // sanctioned wall-clock boundary
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					checkForbiddenRef(p, n)
				case *ast.RangeStmt:
					checkMapRange(p, fn, n)
				}
				return true
			})
		}
	}
}

func checkForbiddenRef(p *Pass, sel *ast.SelectorExpr) {
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch path {
	case "time":
		if wallClockFuncs[name] {
			p.Reportf(sel.Pos(), "time.%s reads the wall clock in a deterministic package; inject a clock or move the measurement behind a Measure* boundary", name)
		}
	case "math/rand", "math/rand/v2":
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() == nil && !randConstructors[name] {
			p.Reportf(sel.Pos(), "%s.%s draws from the global random source; use an explicitly seeded *rand.Rand", path, name)
		}
	}
}

// checkMapRange flags `range m` over a map unless the loop only collects
// keys (or values) into a slice that is sorted later in the same function —
// the repo's sort.Strings-then-range idiom.
func checkMapRange(p *Pass, fn *ast.FuncDecl, rs *ast.RangeStmt) {
	tv, ok := p.Info.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if fn != nil && mapRangeCollectsAndSorts(p, fn, rs) {
		return
	}
	p.Reportf(rs.Pos(), "iteration over map %s has nondeterministic order; collect the keys into a slice and sort before use", types.TypeString(tv.Type, types.RelativeTo(p.Pkg)))
}

// mapRangeCollectsAndSorts recognizes the clean idiom: every statement in
// the loop body is an append to one local slice (possibly behind an if),
// and that slice is passed to a sort function after the loop.
func mapRangeCollectsAndSorts(p *Pass, fn *ast.FuncDecl, rs *ast.RangeStmt) bool {
	var target types.Object
	appends := 0
	clean := true
	var scan func(stmts []ast.Stmt)
	scan = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *ast.IfStmt:
				if s.Init != nil || s.Else != nil {
					clean = false
					return
				}
				scan(s.Body.List)
			case *ast.AssignStmt:
				obj := appendTarget(p, s)
				if obj == nil || (target != nil && obj != target) {
					clean = false
					return
				}
				target = obj
				appends++
			default:
				clean = false
				return
			}
		}
	}
	scan(rs.Body.List)
	if !clean || appends == 0 {
		return false
	}
	sorted := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || len(call.Args) == 0 {
			return true
		}
		if !isSortCall(p, call.Fun) {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && p.Info.Uses[id] == target {
			sorted = true
		}
		return true
	})
	return sorted
}

// appendTarget returns the object of x when the statement has the exact
// shape `x = append(x, ...)`, else nil.
func appendTarget(p *Pass, s *ast.AssignStmt) types.Object {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return nil
	}
	lhs, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || p.Info.Uses[fun] != types.Universe.Lookup("append") {
		return nil
	}
	arg0, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || arg0.Name != lhs.Name {
		return nil
	}
	obj := p.Info.Uses[lhs]
	if obj == nil {
		obj = p.Info.Defs[lhs]
	}
	return obj
}

var sortFuncs = map[string]map[string]bool{
	"sort":   {"Strings": true, "Ints": true, "Float64s": true, "Slice": true, "SliceStable": true, "Sort": true, "Stable": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

func isSortCall(p *Pass, fun ast.Expr) bool {
	sel, ok := ast.Unparen(fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	names := sortFuncs[fn.Pkg().Path()]
	return names != nil && names[fn.Name()]
}
