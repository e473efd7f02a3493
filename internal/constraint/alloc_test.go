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
// backtracking steps themselves allocate nothing. Node values and their
// trail come from the problem's pool, so a solve does not allocate them.
// Counts are per solve (NewSolver plus Solve) over every function of the
// workload:
//
//	                   map-based solver   slot form   maintained values   ceiling
//	GEMM on sgemm            25641           60.0            58.0            150
//	Stencil1 on stencil      17795           62.0            60.0            150
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

// TestMemoGetAllocations guards the cost of a memo hit. A resident entry is
// only its payload bytes, so every Get decodes solutions onto the asking
// function. Binding names come from the problem's symbol table, and
// references are compared with the function's operands as payload bytes,
// so a hit allocates its solutions (the slice and one map each) and, for an
// entry that binds a constant or global, the function's operand index.
// Counts are per Get over every (function × idiom) outcome of the 21
// workloads:
//
//	                  strings decoded per hit   names reused, bytes compared   ceiling
//	allocs per Get             4.82                        1.39                   2
func TestMemoGetAllocations(t *testing.T) {
	ros := idioms.All()
	probs, err := idioms.Problems(ros)
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		prob *constraint.Problem
		fp   constraint.Fingerprint
		info *analysis.Info
	}
	cache := constraint.NewSolveCacheSize(0)
	var entries []entry
	for _, w := range workloads.All() {
		mod, err := w.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range mod.Functions {
			info := analysis.Analyze(fn)
			fp := constraint.FingerprintInfo(info)
			for _, idm := range ros {
				prob := probs[idm.Name]
				s := constraint.NewSolver(prob, info)
				cache.Put(prob, fp, info, s.Solve(), s.Steps)
				entries = append(entries, entry{prob, fp, info})
			}
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, e := range entries {
			if _, _, ok := cache.Get(e.prob, e.fp, e.info); !ok {
				t.Fatal("memo miss on a stored outcome")
			}
		}
	})
	perGet := allocs / float64(len(entries))
	t.Logf("%d memo hits: %.0f allocations, %.2f per Get", len(entries), allocs, perGet)
	if perGet > 2 {
		t.Errorf("%.2f allocations per memo hit, ceiling 2", perGet)
	}
}
