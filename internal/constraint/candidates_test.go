package constraint_test

import (
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/constraint"
)

// TestSuiteCandidateSoundness solves every (function × idiom) pair of the 21
// workloads, for the built-in library with Map and the customidiom AXPY
// pack, once with atom-derived candidates and once enumerating the whole
// domain, and requires the same solution set. Derived candidates only prune
// the search; the naive enumeration visits more steps by design, so steps
// are not compared.
func TestSuiteCandidateSoundness(t *testing.T) {
	probs := append(builtinProblems(t, true), axpyProblem(t))
	infos := suiteInfos(t)
	pairs, solutions := 0, 0
	for _, prob := range probs {
		for _, info := range infos {
			derived := solutionKeys(prob, info, false)
			naive := solutionKeys(prob, info, true)
			if !slices.Equal(derived, naive) {
				t.Errorf("%s on %s: derived candidates find %d solutions, the whole domain %d",
					prob.Name, info.Fn.Ident, len(derived), len(naive))
			}
			pairs++
			solutions += len(derived)
		}
	}
	t.Logf("%d pairs, %d solutions", pairs, solutions)
	if solutions == 0 {
		t.Fatal("no pair has a solution; the comparison shows nothing")
	}
}

func solutionKeys(prob *constraint.Problem, info *analysis.Info, naive bool) []string {
	solver := constraint.NewSolver(prob, info)
	solver.NaiveCandidates = naive
	var keys []string
	for _, sol := range solver.Solve() {
		keys = append(keys, constraint.CanonicalKeyForTest(sol))
	}
	slices.Sort(keys)
	return keys
}

// TestSuitePruningBinds counts, over one suite pass (the built-in roster's
// seven idioms on every function of the 21 workloads), the binds whose
// candidate turns the formula false at once. Each is a bind and an undo
// spent on a value the candidate sets could have excluded. Disjunctions
// draw candidates only from their kids that can still hold, which keeps the
// count near 34,000; uniting every kid's set gave 672,445. A change that
// widens the candidate sets again fails here.
func TestSuitePruningBinds(t *testing.T) {
	const ceiling = 40000
	probs := builtinProblems(t, false)
	infos := suiteInfos(t)
	counts, remove := constraint.CountBindsForTest()
	defer remove()
	steps := 0
	for _, prob := range probs {
		for _, info := range infos {
			solver := constraint.NewSolver(prob, info)
			solver.Solve()
			steps += solver.Steps
		}
	}
	binds, pruning := counts()
	t.Logf("%d binds, %d pruning, %d steps", binds, pruning, steps)
	if binds == 0 {
		t.Fatal("no bind was counted; the count is not installed")
	}
	if pruning > ceiling {
		t.Errorf("%d of %d binds turned the formula false at once, want at most %d", pruning, binds, ceiling)
	}
}
