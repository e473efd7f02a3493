// Package wallclock keeps the solver and the detection merge paths
// wall-clock free. SolverSteps is the paper's deterministic cost metric and
// memoized solve payloads replay byte-identically across restarts; a
// time.Now anywhere in those paths is either dead weight or — worse — a
// value that leaks into output and breaks byte-identity between a fresh
// solve and a memo hit. Measurement has designated sites (module Elapsed
// timing); everything else is
// flagged, and a new measurement site must be added to the approved list or
// carry an explicit //lint:allow with its reason.
package wallclock

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the wallclock check.
var Analyzer = &analysis.Analyzer{
	Name:      "wallclock",
	Doc:       "flags time.Now/time.Since outside approved measurement sites",
	Rationale: "internal/constraint and internal/detect merge paths must be wall-clock free so SolverSteps and memoized solve payloads stay byte-identical across runs and restarts; measure time only at approved sites",
	Scope:     []string{"internal/constraint", "internal/detect"},
	Run:       run,
}

// approvedSites lists, per scoped package, the functions allowed to read the
// wall clock — the timing/measurement surface. Methods are Receiver.Name.
// Every entry must name a function the package declares: a stale entry is
// reported, so it cannot silently exempt a future function of that name.
var approvedSites = map[string]map[string]bool{
	"internal/constraint": {},
	"internal/detect": {
		"Engine.Modules": true, // batch Elapsed timing
		"Stream.Detect":  true, // per-module start stamp and Elapsed
	},
}

func run(pass *analysis.Pass) error {
	approved := map[string]bool{}
	for suffix, set := range approvedSites {
		if pass.PkgPath == suffix || strings.HasSuffix(pass.PkgPath, "/"+suffix) {
			approved = set
		}
	}
	declared := map[string]bool{}
	var pkgPos token.Pos
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		if !pkgPos.IsValid() {
			pkgPos = f.Package
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := qualifiedName(fd)
			declared[name] = true
			if approved[name] {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	if !pkgPos.IsValid() {
		return nil // test-only package: nothing declared, nothing to compare
	}
	stale := make([]string, 0, len(approved))
	for name := range approved {
		if !declared[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		pass.Reportf(pkgPos, "approved wall-clock site %s is not declared in %s; remove the stale entry", name, pass.PkgPath)
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Now" && sel.Sel.Name != "Since" {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.TypesInfo.ObjectOf(id).(*types.PkgName)
		if !ok || pn.Imported().Path() != "time" {
			return true
		}
		pass.Reportf(call.Pos(), "wall-clock read time.%s in %s is outside the approved measurement sites",
			sel.Sel.Name, qualifiedName(fd))
		return true
	})
}

// qualifiedName renders a function as Name or Receiver.Name.
func qualifiedName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
