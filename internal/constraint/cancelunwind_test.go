package constraint

import (
	"fmt"
	"strings"
	"testing"
)

// bigKernelSource generates a function with n add-of-mul statements (each a
// genuine factorization opportunity): enough feasible partial assignments
// that the search runs well past the solver's 64-step cancellation poll
// interval.
func bigKernelSource(n int) string {
	var b strings.Builder
	b.WriteString("int kernel(int a, int b, int c) {\n int acc = a;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " acc = acc + ((a*b) + (c*a));\n")
	}
	b.WriteString(" return acc;\n}")
	return b.String()
}

// TestCancelUnwindDoesNoLateBinds pins the per-candidate cancellation check
// in the sequential search: once the periodic poll observes Cancel deep in
// the recursion, every live step frame must abandon its candidate loop on
// the way out rather than keep binding and evaluating sibling candidates.
// lateBinds counts bindings performed after the cancelled flag was set — the
// wasted unwinding work — and must be exactly zero. (The idiomvet cancelpoll
// analyzer enforces the same discipline statically; this is its dynamic
// twin.)
func TestCancelUnwindDoesNoLateBinds(t *testing.T) {
	prob := mustProblem(t, figure2, "FactorizationOpportunity", nil)
	info := analyzeC(t, bigKernelSource(120), "kernel")

	cancel := make(chan struct{})
	close(cancel) // detected at the first periodic poll, 64 steps in
	s := NewSolver(prob, info)
	s.Cancel = cancel
	s.Solve()

	if !s.Cancelled() {
		t.Fatal("pre-closed Cancel not reported; the search never polled")
	}
	if s.Steps < 64 {
		t.Fatalf("search did %d steps before the poll; expected to reach the 64-step interval", s.Steps)
	}
	if s.lateBinds != 0 {
		t.Errorf("%d candidate bindings after cancellation was observed; "+
			"step frames must check the cancelled flag once per candidate while unwinding", s.lateBinds)
	}
}
