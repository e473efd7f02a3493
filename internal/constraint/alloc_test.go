package constraint_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/constraint"
	"repro/internal/idioms"
	"repro/internal/workloads"
)

// TestSolveAllocations guards the slot-form solver's allocation budget: a
// solve allocates its solver's tables and its solutions, and the
// backtracking steps themselves allocate nothing. Counts are per solve
// (NewSolver plus Solve) over every function of the workload:
//
//	                   map-based solver   slot form   ceiling
//	GEMM on sgemm            25641           60.0        150
//	Stencil1 on stencil      17795           62.0        150
//
// A single allocation per atom evaluation (the map-based solver's argument
// slice) costs thousands per solve, far above the ceiling. The race
// detector adds a handful.
func TestSolveAllocations(t *testing.T) {
	pack, err := idioms.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ idiom, workload string }{
		{"GEMM", "sgemm"},
		{"Stencil1", "stencil"},
	} {
		prob, ok := pack.Problem(c.idiom)
		if !ok {
			t.Fatalf("built-in pack has no %s", c.idiom)
		}
		mod, err := workloads.ByName(c.workload).Compile()
		if err != nil {
			t.Fatal(err)
		}
		var infos []*analysis.Info
		for _, fn := range mod.Functions {
			infos = append(infos, analysis.Analyze(fn))
		}
		steps := 0
		allocs := testing.AllocsPerRun(5, func() {
			steps = 0
			for _, info := range infos {
				s := constraint.NewSolver(prob, info)
				s.Solve()
				steps += s.Steps
			}
		})
		perSolve := allocs / float64(len(infos))
		t.Logf("%s on %s: %.1f allocations per solve, %d steps", c.idiom, c.workload, perSolve, steps)
		if perSolve > 150 {
			t.Errorf("%s on %s: %.1f allocations per solve, ceiling 150", c.idiom, c.workload, perSolve)
		}
	}
}
