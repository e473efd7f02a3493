package constraint

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cc"
	"repro/internal/idl"
	"repro/internal/ir"
)

const figure2 = `
Constraint FactorizationOpportunity
( {sum} is add instruction and
  {left_addend} is first argument of {sum} and
  {left_addend} is mul instruction and
  {right_addend} is second argument of {sum} and
  {right_addend} is mul instruction and
  ( {factor} is first argument of {left_addend} or
    {factor} is second argument of {left_addend}) and
  ( {factor} is first argument of {right_addend} or
    {factor} is second argument of {right_addend}))
End
`

func mustProblem(t *testing.T, src, top string, params map[string]int) *Problem {
	t.Helper()
	prog, err := idl.ParseProgram(src)
	if err != nil {
		t.Fatalf("ParseProgram: %v", err)
	}
	p, err := Compile(prog, top, CompileOptions{Params: params})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

func analyzeC(t *testing.T, csrc, fn string) *analysis.Info {
	t.Helper()
	mod, err := cc.Compile("test", csrc)
	if err != nil {
		t.Fatalf("cc.Compile: %v", err)
	}
	f := mod.FunctionByName(fn)
	if f == nil {
		t.Fatalf("function %s not found", fn)
	}
	return analysis.Analyze(f)
}

// TestFigure3 reproduces the paper's Figure 3 end to end: the solver must
// find exactly one factorization opportunity with factor = %a.
func TestFigure3(t *testing.T) {
	prob := mustProblem(t, figure2, "FactorizationOpportunity", nil)
	if len(prob.Vars) != 4 {
		t.Fatalf("vars = %v, want 4 variables", prob.Vars)
	}
	info := analyzeC(t, `
int example(int a, int b, int c) {
    int d = a;
    return (a*b) + (c*d);
}`, "example")

	sols := NewSolver(prob, info).Solve()
	if len(sols) != 1 {
		for _, s := range sols {
			t.Logf("solution: %s", s)
		}
		t.Fatalf("solutions = %d, want exactly 1", len(sols))
	}
	sol := sols[0]
	if sol["factor"] != ir.Value(info.Fn.Args[0]) {
		t.Errorf("factor = %s, want %%a", sol["factor"].Operand())
	}
	sum, ok := sol["sum"].(*ir.Instruction)
	if !ok || sum.Op != ir.OpAdd {
		t.Errorf("sum = %v, want the add", sol["sum"])
	}
	la := sol["left_addend"].(*ir.Instruction)
	ra := sol["right_addend"].(*ir.Instruction)
	if la.Op != ir.OpMul || ra.Op != ir.OpMul {
		t.Errorf("addends must be muls, got %s and %s", la.Op, ra.Op)
	}
	if !sameValue(sum.Ops[0], la) || !sameValue(sum.Ops[1], ra) {
		t.Error("addends must be the operands of the sum")
	}
}

// A function without the pattern yields no solutions.
func TestFigure3Negative(t *testing.T) {
	prob := mustProblem(t, figure2, "FactorizationOpportunity", nil)
	info := analyzeC(t, `
int nofactor(int a, int b, int c) {
    return (a*b) + c;
}`, "nofactor")
	if sols := NewSolver(prob, info).Solve(); len(sols) != 0 {
		t.Fatalf("solutions = %d, want 0", len(sols))
	}
}

// Two independent opportunities both surface.
func TestFigure3Multiple(t *testing.T) {
	prob := mustProblem(t, figure2, "FactorizationOpportunity", nil)
	info := analyzeC(t, `
int two(int a, int b, int c, int d) {
    int r1 = (a*b) + (a*c);
    int r2 = (d*b) + (c*d);
    return r1 + r2;
}`, "two")
	sols := NewSolver(prob, info).Solve()
	if len(sols) != 2 {
		for _, s := range sols {
			t.Logf("solution: %s", s)
		}
		t.Fatalf("solutions = %d, want 2", len(sols))
	}
	factors := map[string]bool{}
	for _, s := range sols {
		factors[s["factor"].Operand()] = true
	}
	if !factors["%a"] || !factors["%d"] {
		t.Errorf("factors = %v, want a and d", factors)
	}
}

// SESE regions: the paper's Figure 9 constraint must find the loop body
// region in a simple counted loop.
const seseSrc = `
Constraint SESE
( {precursor} is branch instruction and
  {precursor} has control flow to {begin} and
  {end} is branch instruction and
  {end} has control flow to {successor} and
  {begin} control flow dominates {end} and
  {end} control flow post dominates {begin} and
  {precursor} strictly control flow dominates {begin} and
  {successor} strictly control flow post dominates {end} and
  all control flow from {begin} to {precursor} passes through {end} and
  all control flow from {successor} to {end} passes through {begin})
End
`

func TestSESEOnLoop(t *testing.T) {
	prob := mustProblem(t, seseSrc, "SESE", nil)
	info := analyzeC(t, `
double sum(double* a, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s = s + a[i];
    }
    return s;
}`, "sum")
	sols := NewSolver(prob, info).Solve()
	if len(sols) == 0 {
		t.Fatal("no SESE regions found in a loop")
	}
	// At least one solution must span the loop body: begin is the phi (first
	// instruction of the header) reached from the entry branch.
	foundHeader := false
	for _, s := range sols {
		b, ok := s["begin"].(*ir.Instruction)
		if ok && b.Op == ir.OpPhi {
			foundHeader = true
		}
	}
	if !foundHeader {
		for _, s := range sols {
			t.Logf("solution: begin=%s end=%s", s["begin"].Operand(), s["end"].Operand())
		}
		t.Error("no SESE solution starts at the loop header phi")
	}
}

// Inheritance, rename and rebase: flat names must compose correctly.
func TestFlattenRenameRebase(t *testing.T) {
	src := `
Constraint Leaf
( {value} is load instruction and
  {address} is first argument of {value} )
End
Constraint Top
( inherits Leaf with {x} as {value} at {read} and
  {x} is the same as {x} )
End
`
	prob := mustProblem(t, src, "Top", nil)
	joined := strings.Join(prob.Vars, ",")
	if !strings.Contains(joined, "x") {
		t.Errorf("renamed variable x missing: %v", prob.Vars)
	}
	if !strings.Contains(joined, "read.address") {
		t.Errorf("rebased variable read.address missing: %v", prob.Vars)
	}
	if strings.Contains(joined, "read.value") {
		t.Errorf("renamed variable must not also appear rebased: %v", prob.Vars)
	}
}

// forall duplication with parameterized inheritance.
func TestFlattenForAllParams(t *testing.T) {
	src := `
Constraint Chain
( ( {n[i+1]} is first argument of {n[i]} ) for all i = 0..N-2 and
  {n[0]} is add instruction )
End
`
	prob := mustProblem(t, src, "Chain", map[string]int{"N": 3})
	want := map[string]bool{"n[0]": true, "n[1]": true, "n[2]": true}
	for _, v := range prob.Vars {
		delete(want, v)
	}
	if len(want) != 0 {
		t.Errorf("missing vars %v in %v", want, prob.Vars)
	}
}

func TestFlattenIf(t *testing.T) {
	src := `
Constraint Cond
( if N = 1 then {x} is add instruction else {x} is mul instruction endif )
End
`
	p1 := mustProblem(t, src, "Cond", map[string]int{"N": 1})
	if at, ok := p1.Root.(*NAtom); !ok || at.Opcode != "add" {
		t.Errorf("N=1 root = %+v, want add atomic", p1.Root)
	}
	p2 := mustProblem(t, src, "Cond", map[string]int{"N": 2})
	if at, ok := p2.Root.(*NAtom); !ok || at.Opcode != "mul" {
		t.Errorf("N=2 root = %+v, want mul atomic", p2.Root)
	}
}

// Collect: gather all loads in a loop body.
func TestCollectLoads(t *testing.T) {
	src := `
Constraint Reads
( {acc} is fadd instruction and
  collect i 1
  ( {read[i]} is load instruction and
    {read[i]} has data flow to {acc} ) )
End
`
	prob := mustProblem(t, src, "Reads", nil)
	info := analyzeC(t, `
double addtwo(double* a, double* b, int i) {
    return a[i] + b[i];
}`, "addtwo")
	sols := NewSolver(prob, info).Solve()
	if len(sols) != 1 {
		t.Fatalf("solutions = %d, want 1", len(sols))
	}
	sol := sols[0]
	n := 0
	for name := range sol {
		if strings.HasPrefix(name, "read[") {
			n++
		}
	}
	if n != 2 {
		t.Errorf("collected reads = %d, want 2: %s", n, sol)
	}
}

// Collect with an unmet minimum must fail the match.
func TestCollectMinimum(t *testing.T) {
	src := `
Constraint Reads
( {acc} is fadd instruction and
  collect i 3
  ( {read[i]} is load instruction and
    {read[i]} has data flow to {acc} ) )
End
`
	prob := mustProblem(t, src, "Reads", nil)
	info := analyzeC(t, `
double addtwo(double* a, double* b, int i) {
    return a[i] + b[i];
}`, "addtwo")
	if sols := NewSolver(prob, info).Solve(); len(sols) != 0 {
		t.Fatalf("solutions = %d, want 0 (minimum 3 loads unmet)", len(sols))
	}
}

// "is not the same as" and "unused" atomics.
func TestNegationAndUnused(t *testing.T) {
	src := `
Constraint TwoMuls
( {m1} is mul instruction and
  {m2} is mul instruction and
  {m1} is not the same as {m2} )
End
`
	prob := mustProblem(t, src, "TwoMuls", nil)
	info := analyzeC(t, `
int f(int a, int b) { return (a*b) + (b*b); }`, "f")
	sols := NewSolver(prob, info).Solve()
	// Two distinct muls in both orders.
	if len(sols) != 2 {
		t.Fatalf("solutions = %d, want 2", len(sols))
	}
}

func TestOrderingStrategies(t *testing.T) {
	prog, err := idl.ParseProgram(figure2)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := Compile(prog, "FactorizationOpportunity", CompileOptions{Ordering: OrderGreedy})
	if err != nil {
		t.Fatal(err)
	}
	appearance, err := Compile(prog, "FactorizationOpportunity", CompileOptions{Ordering: OrderAppearance})
	if err != nil {
		t.Fatal(err)
	}
	if appearance.Vars[0] != "sum" {
		t.Errorf("appearance order must start at sum, got %v", appearance.Vars)
	}
	info := analyzeC(t, `
int example(int a, int b, int c) {
    int d = a;
    return (a*b) + (c*d);
}`, "example")
	s1 := NewSolver(greedy, info).Solve()
	s2 := NewSolver(appearance, info).Solve()
	if len(s1) != len(s2) {
		t.Errorf("orderings disagree: %d vs %d solutions", len(s1), len(s2))
	}
}

func TestSolverLimit(t *testing.T) {
	src := `
Constraint AnyAdd ( {x} is add instruction ) End
`
	prob := mustProblem(t, src, "AnyAdd", nil)
	info := analyzeC(t, `
int f(int a) { int x = a + 1; int y = x + 2; int z = y + 3; return z; }`, "f")
	s := NewSolver(prob, info)
	s.Limit = 2
	if sols := s.Solve(); len(sols) != 2 {
		t.Fatalf("limited solutions = %d, want 2", len(sols))
	}
}

func TestProblemString(t *testing.T) {
	prob := mustProblem(t, figure2, "FactorizationOpportunity", nil)
	s := prob.String()
	for _, want := range []string{"FactorizationOpportunity", "sum is add instruction", "or"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestCompileUnknownConstraint(t *testing.T) {
	prog, _ := idl.ParseProgram(figure2)
	if _, err := Compile(prog, "Nope", CompileOptions{}); err == nil {
		t.Fatal("expected error for unknown constraint")
	}
}

// TestHugeRangeRejected pins the flattened-size bound: a tenant range of two
// billion iterations is a prompt compile error, not a compile that exhausts
// memory.
func TestHugeRangeRejected(t *testing.T) {
	prog, err := idl.ParseProgram(`
Constraint Huge
( ( {v[i]} is add instruction ) for all i = 0..2000000000 )
End`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(prog, "Huge", CompileOptions{}); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("err = %v, want the flattened-size bound", err)
	}
}

func TestInheritCycleDetected(t *testing.T) {
	src := `
Constraint A ( inherits B ) End
Constraint B ( inherits A ) End
`
	prog, err := idl.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(prog, "A", CompileOptions{}); err == nil {
		t.Fatal("expected inheritance cycle error")
	}
}
