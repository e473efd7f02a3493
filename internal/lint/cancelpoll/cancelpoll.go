// Package cancelpoll pins the solver's cancellation discipline: every
// candidate-enumeration loop must react to cancellation once per candidate.
// The periodic 64-step poll inside step() sets the cancelled flag deep in the
// recursion; the sequential candidate loop must observe that flag after every
// candidate, or an abort keeps enumerating siblings through bind/eval work at
// every frame on the way out (the unwinding leak PR 10 fixed).
package cancelpoll

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the cancelpoll check.
var Analyzer = &analysis.Analyzer{
	Name:      "cancelpoll",
	Doc:       "flags candidate-enumeration loops in solve paths that never check cancellation",
	Rationale: "solver loops must poll Cancel (or observe the cancelled flag) every candidate: the 64-step poll fires deep in the recursion, and a loop without a per-iteration check keeps binding and evaluating sibling candidates on the way out after the abort (PR 10 fix)",
	Scope:     []string{"internal/constraint"},
	Run:       run,
}

// candidateNames mark range expressions that enumerate solver candidates.
var candidateNames = []string{"candidateList", "candidates"}

// pollCallRe matches helper calls that poll or observe cancellation.
var pollCallRe = regexp.MustCompile(`(?i)cancel`)

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				// A closure runs on its own schedule; its loops are checked
				// when the inspection reaches them, but a loop *containing*
				// a closure must not take credit for polls inside it.
				return true
			}
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.RangeStmt:
				if !isCandidateRange(loop) && !callsTryCandidate(loop.Body) {
					return true
				}
				body = loop.Body
			case *ast.ForStmt:
				if !callsTryCandidate(loop.Body) {
					return true
				}
				body = loop.Body
			default:
				return true
			}
			if !hasCancelCheck(body) {
				pass.Reportf(n.Pos(), "candidate-enumeration loop never checks cancellation; poll Cancel or observe the cancelled flag once per candidate")
			}
			return true
		})
	}
	return nil
}

// isCandidateRange reports whether the range expression enumerates solver
// candidates: a call to candidateList/candidates, or a variable whose name
// starts with "cand" (a candidate slice).
func isCandidateRange(rs *ast.RangeStmt) bool {
	switch x := rs.X.(type) {
	case *ast.CallExpr:
		name := calleeName(x)
		for _, c := range candidateNames {
			if name == c {
				return true
			}
		}
	case *ast.Ident:
		return strings.HasPrefix(x.Name, "cand")
	}
	return false
}

// callsTryCandidate reports whether the loop body (outside nested function
// literals) calls tryCandidate — the shared per-candidate search body.
func callsTryCandidate(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && calleeName(call) == "tryCandidate" {
			found = true
			return false
		}
		return true
	})
	return found
}

// hasCancelCheck reports whether the loop body (outside nested function
// literals) contains any accepted cancellation check:
//
//   - a select with a receive case on a channel expression mentioning Cancel,
//   - a call to a function or method whose name mentions cancel
//     (Cancelled, pollCancel, ...),
//   - a read of a field or variable named cancelled (observing the flag a
//     deeper periodic poll sets).
func hasCancelCheck(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch t := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			for _, cl := range t.Body.List {
				cc := cl.(*ast.CommClause)
				if cc.Comm != nil && recvMentionsCancel(cc.Comm) {
					found = true
					return false
				}
			}
		case *ast.CallExpr:
			if pollCallRe.MatchString(calleeName(t)) {
				found = true
				return false
			}
		case *ast.SelectorExpr:
			if t.Sel.Name == "cancelled" {
				found = true
				return false
			}
		case *ast.Ident:
			if t.Name == "cancelled" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// recvMentionsCancel reports whether a select communication receives from an
// expression whose rendering mentions Cancel.
func recvMentionsCancel(comm ast.Stmt) bool {
	var expr ast.Expr
	switch t := comm.(type) {
	case *ast.ExprStmt:
		expr = t.X
	case *ast.AssignStmt:
		if len(t.Rhs) == 1 {
			expr = t.Rhs[0]
		}
	}
	un, ok := expr.(*ast.UnaryExpr)
	if !ok {
		return false
	}
	return strings.Contains(types.ExprString(un.X), "Cancel")
}

// calleeName extracts the called function or method name.
func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}
