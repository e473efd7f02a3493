// Package errenvelope makes the PR 6 error contract structural: every
// non-2xx response from the HTTP API carries the uniform
// {"error":{code,message,retry_after_ms?}} envelope, which holds by
// construction only if every error status flows through the WriteError
// helpers. A stray http.Error or bare WriteHeader(4xx/5xx) ships a non-2xx
// without an envelope, and clients parsing envelopes see garbage.
package errenvelope

import (
	"go/ast"
	"go/constant"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer is the errenvelope check.
var Analyzer = &analysis.Analyzer{
	Name:      "errenvelope",
	Doc:       "flags error responses written outside the WriteError helpers",
	Rationale: "every non-2xx must carry the v1 error envelope; write errors through WriteError/writeErrorRetry, never http.Error or a bare WriteHeader(>=400) (PR 6 contract)",
	Scope:     []string{"internal/httpapi"},
	Run:       run,
}

// allowedFuncs are the helpers that own status-line writing. WriteJSON is
// the shared encoder both success and envelope paths go through.
var allowedFuncs = map[string]bool{
	"WriteError":      true,
	"writeErrorRetry": true,
	"WriteJSON":       true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if allowedFuncs[fd.Name.Name] {
				continue
			}
			checkFunc(pass, fd)
		}
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
		switch {
		case isHTTPError(pass, sel):
			pass.Reportf(call.Pos(), "http.Error bypasses the v1 error envelope; use WriteError")
		case sel.Sel.Name == "WriteHeader" && len(call.Args) == 1:
			arg := call.Args[0]
			tv, ok := pass.TypesInfo.Types[arg]
			if !ok || tv.Value == nil {
				pass.Reportf(call.Pos(), "WriteHeader with a non-constant status outside the WriteError helpers (an error status here would skip the envelope)")
				return true
			}
			if v, exact := constant.Int64Val(tv.Value); exact && v >= 400 {
				pass.Reportf(call.Pos(), "WriteHeader(%d) outside the WriteError helpers skips the v1 error envelope", v)
			}
		}
		return true
	})
}

// isHTTPError reports whether sel references net/http.Error.
func isHTTPError(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Error" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.ObjectOf(id).(*types.PkgName)
	return ok && pn.Imported().Path() == "net/http"
}
