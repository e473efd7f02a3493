package constraint

import (
	"sync"
	"testing"
)

// solveTestSource is large enough that the search has several solutions and
// a root candidate list of more than one value.
const solveTestSource = `
int kernel(int a, int b, int c, int n) {
    int s0 = a * b;
    int s1 = c * a;
    int s2 = s0 + s1;
    int s3 = b * c;
    int s4 = s3 + s2;
    int s5 = a * c;
    int s6 = s5 + s4;
    int s7 = s6 * b;
    int s8 = s7 + s0;
    return s8 + n;
}`

// sameSolutions reports the first difference between two solution lists,
// values and order both.
func sameSolutions(t *testing.T, got, want []Solution) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d solutions, want %d", len(got), len(want))
	}
	for i := range want {
		if canonicalKey(got[i]) != canonicalKey(want[i]) {
			t.Errorf("solution %d differs:\n  want: %s\n  got:  %s",
				i, canonicalKey(want[i]), canonicalKey(got[i]))
		}
	}
}

// TestSplitSolveMatchesSequential pins that Solve is a pure function of the
// problem and the analysis: a fresh solver reproduces the reference
// solutions (values and order) and step count, both on the test goroutine
// and when several solvers share the problem and info concurrently, as the
// detection engine's workers do. Under -race the goroutine case also checks
// that Solve writes nothing shared. The split=1 label names the sequential
// search, the only one the solver has.
func TestSplitSolveMatchesSequential(t *testing.T) {
	prob := mustProblem(t, figure2, "FactorizationOpportunity", nil)
	info := analyzeC(t, solveTestSource, "kernel")

	ref := NewSolver(prob, info)
	want := ref.Solve()
	if len(want) == 0 {
		t.Fatal("reference solve found no solutions; test needs a non-trivial search")
	}

	t.Run("split=1/inline", func(t *testing.T) {
		s := NewSolver(prob, info)
		got := s.Solve()
		if s.Steps != ref.Steps {
			t.Errorf("steps = %d, want %d", s.Steps, ref.Steps)
		}
		sameSolutions(t, got, want)
		if s.Cancelled() {
			t.Error("uncancelled solve reports Cancelled")
		}
	})
	t.Run("split=1/goroutines", func(t *testing.T) {
		const n = 4
		solvers := make([]*Solver, n)
		results := make([][]Solution, n)
		var wg sync.WaitGroup
		for i := range solvers {
			solvers[i] = NewSolver(prob, info)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = solvers[i].Solve()
			}(i)
		}
		wg.Wait()
		for i, s := range solvers {
			if s.Steps != ref.Steps {
				t.Errorf("solver %d: steps = %d, want %d", i, s.Steps, ref.Steps)
			}
			sameSolutions(t, results[i], want)
		}
	})
}

// TestSplitSolveNaiveCandidates covers the ablation path: with candidate
// generation disabled every variable enumerates the whole domain. The search
// stays deterministic (values, order and steps), finds exactly the indexed
// search's solution set, and pays for the ablation in steps.
func TestSplitSolveNaiveCandidates(t *testing.T) {
	prob := mustProblem(t, figure2, "FactorizationOpportunity", nil)
	info := analyzeC(t, solveTestSource, "kernel")

	ref := NewSolver(prob, info)
	ref.NaiveCandidates = true
	want := ref.Solve()

	s := NewSolver(prob, info)
	s.NaiveCandidates = true
	got := s.Solve()
	if s.Steps != ref.Steps {
		t.Errorf("steps = %d, want %d", s.Steps, ref.Steps)
	}
	sameSolutions(t, got, want)

	indexed := NewSolver(prob, info)
	isols := indexed.Solve()
	naiveSet := map[string]bool{}
	for _, sol := range want {
		naiveSet[canonicalKey(sol)] = true
	}
	if len(isols) != len(naiveSet) {
		t.Errorf("indexed search found %d solutions, naive %d", len(isols), len(naiveSet))
	}
	for _, sol := range isols {
		if !naiveSet[canonicalKey(sol)] {
			t.Errorf("indexed solution %s missing from the naive enumeration", canonicalKey(sol))
		}
	}
	if ref.Steps < indexed.Steps {
		t.Errorf("naive search took %d steps, fewer than the indexed search's %d", ref.Steps, indexed.Steps)
	}
}

// TestSplitSolveLimitFallsBack pins the Limit early exit: a search bounded to
// one solution returns exactly the first solution of the unbounded search,
// in the same order, and stops before exhausting the search space.
func TestSplitSolveLimitFallsBack(t *testing.T) {
	prob := mustProblem(t, figure2, "FactorizationOpportunity", nil)
	info := analyzeC(t, solveTestSource, "kernel")

	full := NewSolver(prob, info)
	all := full.Solve()
	if len(all) < 2 {
		t.Fatalf("unbounded search found %d solutions; test needs at least 2", len(all))
	}

	s := NewSolver(prob, info)
	s.Limit = 1
	got := s.Solve()
	sameSolutions(t, got, all[:1])
	if s.Steps >= full.Steps {
		t.Errorf("limited solve did %d steps, full search does %d; Limit did not stop the search",
			s.Steps, full.Steps)
	}
}

// TestSplitSolveCancelPropagation pins what a cancelled solve hands back: it
// reports Cancelled so callers (the detection engine) never memoize it, it
// sheds work, and the solutions it did find are a prefix of the complete
// enumeration, never values the full search would not produce.
func TestSplitSolveCancelPropagation(t *testing.T) {
	prob := mustProblem(t, figure2, "FactorizationOpportunity", nil)
	info := analyzeC(t, bigKernelSource(120), "kernel")

	cancel := make(chan struct{})
	close(cancel) // observed at the first periodic poll
	s := NewSolver(prob, info)
	s.Cancel = cancel
	partial := s.Solve()
	if !s.Cancelled() {
		t.Fatal("cancellation not reported; a partial solve could be memoized")
	}

	ref := NewSolver(prob, info)
	want := ref.Solve()
	if s.Steps >= ref.Steps {
		t.Errorf("cancelled solve did %d steps, full search does %d; cancellation did not shed work",
			s.Steps, ref.Steps)
	}
	if len(partial) > len(want) {
		t.Fatalf("cancelled solve found %d solutions, full search %d", len(partial), len(want))
	}
	sameSolutions(t, partial, want[:len(partial)])
}
