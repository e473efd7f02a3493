package constraint_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cc"
	"repro/internal/constraint"
	"repro/internal/idioms"
	"repro/internal/idl"
	"repro/internal/workloads"
)

// TestNodeStatesMatchFreshEvaluation solves every built-in problem (the
// paper's seven and Map) and the customidiom example's AXPY pack over every
// function of the 21 workloads, and after every bind, unbind and finish
// compares each node's maintained value and kid counts with a from-scratch
// evaluation. The problems cover collects, empty disjunctions and the
// Unconstrained canonicalisation in finish.
func TestNodeStatesMatchFreshEvaluation(t *testing.T) {
	probs := append(builtinProblems(t, true), axpyProblem(t))
	infos := suiteInfos(t)

	failures := 0
	checks, remove := constraint.CheckNodeStatesForTest(func(msg string) {
		if failures++; failures <= 5 {
			t.Error(msg)
		}
	})
	defer remove()
	solutions := 0
	for _, prob := range probs {
		for _, info := range infos {
			solutions += len(constraint.NewSolver(prob, info).Solve())
		}
	}
	t.Logf("%d problems × %d functions: %d solutions, %d states compared, %d differences",
		len(probs), len(infos), solutions, checks(), failures)
	if checks() == 0 {
		t.Fatal("no state was compared; the check is not installed")
	}
}

// TestCollectStatesFollowOuterContext resolves one collect body under two
// outer contexts that decide one of its atoms differently: the body's
// `{acc} is fadd instruction` names only the outer acc. The sub-solver reuses
// its node states across the two resolutions, so each must start from a
// fresh evaluation of the outer assignment it copies.
func TestCollectStatesFollowOuterContext(t *testing.T) {
	prog, err := idl.ParseProgram(`
Constraint Reads
( ( {acc} is fadd instruction or {acc} is fmul instruction ) and
  collect i 1
  ( {read[i]} is load instruction and
    {read[i]} has data flow to {acc} and
    {acc} is fadd instruction ) )
End
`)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := constraint.Compile(prog, "Reads", constraint.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := cc.Compile("test", `
double f(double* a, double* b, int i) {
    return (a[i] + b[i]) * a[i];
}`)
	if err != nil {
		t.Fatal(err)
	}
	info := analysis.Analyze(mod.FunctionByName("f"))

	failures := 0
	checks, remove := constraint.CheckNodeStatesForTest(func(msg string) {
		if failures++; failures <= 5 {
			t.Error(msg)
		}
	})
	defer remove()
	// Twice, so that the second solve draws states the first put back.
	for range 2 {
		if sols := constraint.NewSolver(prob, info).Solve(); len(sols) != 1 {
			t.Fatalf("%d solutions, want 1 (the fadd)", len(sols))
		}
	}
	if checks() == 0 {
		t.Fatal("no state was compared; the check is not installed")
	}
}

// builtinProblems returns the built-in library's problems in roster order,
// with the extension idioms (Map) when extensions is set.
func builtinProblems(t *testing.T, extensions bool) []*constraint.Problem {
	t.Helper()
	builtin, err := idioms.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	var probs []*constraint.Problem
	for _, idm := range builtin.Idioms {
		if idm.Extension && !extensions {
			continue
		}
		prob, ok := builtin.Problem(idm.Name)
		if !ok {
			t.Fatalf("the built-in pack has no problem for %s", idm.Name)
		}
		probs = append(probs, prob)
	}
	return probs
}

// axpyProblem returns the problem of the customidiom example's AXPY pack.
func axpyProblem(t *testing.T) *constraint.Problem {
	t.Helper()
	prob, ok := axpyPack(t).Problem("AXPY")
	if !ok {
		t.Fatal("the AXPY pack has no problem for AXPY")
	}
	return prob
}

// suiteInfos analyses every function of the 21 workloads.
func suiteInfos(t *testing.T) []*analysis.Info {
	t.Helper()
	var infos []*analysis.Info
	for _, w := range workloads.All() {
		mod, err := w.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", w.Name, err)
		}
		for _, fn := range mod.Functions {
			infos = append(infos, analysis.Analyze(fn))
		}
	}
	return infos
}

// axpyPack compiles the AXPY pack that examples/customidiom registers, from
// that example's own IDL.
func axpyPack(t *testing.T) *idioms.Pack {
	t.Helper()
	example, err := os.ReadFile("../../examples/customidiom/main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, src, ok := strings.Cut(string(example), "const axpyIDL = `")
	src, _, _ = strings.Cut(src, "`")
	if !ok || src == "" {
		t.Fatal("examples/customidiom no longer declares axpyIDL")
	}
	pack, err := idioms.CompilePack("blas1", src, []idioms.TopSpec{{
		Top: "AXPY", Class: "Parallel Map", Scheme: "loopbody1", Kind: "map",
	}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return pack
}
