package cc

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	mod, err := Compile("test", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if err := ir.VerifyModule(mod); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return mod
}

func countOp(f *ir.Function, op ir.Opcode) int {
	n := 0
	for _, in := range f.Instructions() {
		if in.Op == op {
			n++
		}
	}
	return n
}

func TestLexBasics(t *testing.T) {
	toks, err := lex("int x = 42; // comment\n/* block */ double y = 1.5e3f;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	if toks[0].text != "int" || toks[0].kind != tokKeyword {
		t.Errorf("first token = %v", toks[0])
	}
	found42 := false
	foundFloat := false
	for _, tk := range toks {
		if tk.kind == tokIntLit && tk.intVal == 42 {
			found42 = true
		}
		if tk.kind == tokFloatLit && tk.floatVal == 1500 && tk.isFloat32 {
			foundFloat = true
		}
	}
	if !found42 || !foundFloat {
		t.Errorf("literal scanning failed: kinds=%v", kinds)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := lex("int @ x;"); err == nil {
		t.Error("expected error for '@'")
	}
	if _, err := lex("/* unterminated"); err == nil {
		t.Error("expected error for unterminated comment")
	}
}

func TestParseErrors(t *testing.T) {
	bads := []string{
		"int f( { }",
		"void f() { int; }",
		"void f() { x = ; }",
		"void f() { if x { } }",
		"void f() { for (;; }",
		"void f() { return 1 }",
		"void f() {",
	}
	for _, src := range bads {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

// The Figure 3 example: (a*b) + (c*d) with d = a must lower to exactly two
// muls and an add over arguments, after mem2reg removes the d alias.
func TestFigure3Example(t *testing.T) {
	mod := compile(t, `
int example(int a, int b, int c) {
    int d = a;
    return (a*b) + (c*d);
}`)
	f := mod.FunctionByName("example")
	if f == nil {
		t.Fatal("function not found")
	}
	if got := countOp(f, ir.OpMul); got != 2 {
		t.Errorf("muls = %d, want 2\n%s", got, f)
	}
	if got := countOp(f, ir.OpAdd); got != 1 {
		t.Errorf("adds = %d, want 1\n%s", got, f)
	}
	if got := countOp(f, ir.OpAlloca); got != 0 {
		t.Errorf("allocas remaining = %d, want 0 (mem2reg)\n%s", got, f)
	}
	if got := countOp(f, ir.OpLoad); got != 0 {
		t.Errorf("loads remaining = %d, want 0\n%s", got, f)
	}
	// The second mul must use %a (the d alias resolved to a).
	var muls []*ir.Instruction
	for _, in := range f.Instructions() {
		if in.Op == ir.OpMul {
			muls = append(muls, in)
		}
	}
	usesA := false
	for _, op := range muls[1].Ops {
		if op == ir.Value(f.Args[0]) {
			usesA = true
		}
	}
	if !usesA {
		t.Errorf("alias d was not folded to a:\n%s", f)
	}
}

// A counted loop must produce the canonical phi/icmp/br shape of Figure 4.
func TestLoopShape(t *testing.T) {
	mod := compile(t, `
double sum(double* a, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s = s + a[i];
    }
    return s;
}`)
	f := mod.FunctionByName("sum")
	if got := countOp(f, ir.OpPhi); got != 2 {
		t.Errorf("phis = %d, want 2 (i and s)\n%s", got, f)
	}
	if got := countOp(f, ir.OpICmp); got != 1 {
		t.Errorf("icmps = %d, want 1\n%s", got, f)
	}
	if got := countOp(f, ir.OpGEP); got != 1 {
		t.Errorf("geps = %d, want 1\n%s", got, f)
	}
	if got := countOp(f, ir.OpFAdd); got != 1 {
		t.Errorf("fadds = %d, want 1\n%s", got, f)
	}
	if got := countOp(f, ir.OpAlloca); got != 0 {
		t.Errorf("allocas = %d, want 0\n%s", got, f)
	}
	// Index i (i32) must be sign-extended for the gep.
	if got := countOp(f, ir.OpSExt); got < 1 {
		t.Errorf("sexts = %d, want >=1\n%s", got, f)
	}
}

// The paper's CSR SpMV kernel (Figure 4) must compile with a memory-
// dependent inner loop bound and indirect access.
func TestSPMVKernel(t *testing.T) {
	mod := compile(t, `
void spmv(int m, double* a, int* rowstr, int* colidx, double* z, double* r) {
    for (int j = 0; j < m; j++) {
        double d = 0.0;
        for (int k = rowstr[j]; k < rowstr[j+1]; k++) {
            d = d + a[k] * z[colidx[k]];
        }
        r[j] = d;
    }
}`)
	f := mod.FunctionByName("spmv")
	// Inner loads: rowstr[j], rowstr[j+1], a[k], z[colidx[k]], colidx[k].
	if got := countOp(f, ir.OpLoad); got != 5 {
		t.Errorf("loads = %d, want 5\n%s", got, f)
	}
	if got := countOp(f, ir.OpStore); got != 1 {
		t.Errorf("stores = %d, want 1\n%s", got, f)
	}
	if got := countOp(f, ir.OpFMul); got != 1 {
		t.Errorf("fmuls = %d, want 1\n%s", got, f)
	}
	if got := countOp(f, ir.OpPhi); got < 3 {
		t.Errorf("phis = %d, want >= 3 (j, k, d)\n%s", got, f)
	}
}

// Both GEMM styles of Figure 8 must compile; the flattened 2D array style
// must produce an index of shape i*1000 + k.
func TestGEMMTwoStyles(t *testing.T) {
	mod := compile(t, `
void gemm1(int m, int n, int k, float* A, int lda, float* B, int ldb,
           float* C, int ldc, float alpha, float beta) {
    for (int mm = 0; mm < m; mm++) {
        for (int nn = 0; nn < n; nn++) {
            float c = 0.0f;
            for (int i = 0; i < k; i++) {
                float a = A[mm + i * lda];
                float b = B[nn + i * ldb];
                c += a * b;
            }
            C[mm + nn * ldc] = C[mm + nn * ldc] * beta + alpha * c;
        }
    }
}

void gemm2(float M1[1000][1000], float M2[1000][1000], float M3[1000][1000]) {
    for (int i = 0; i < 1000; i++) {
        for (int j = 0; j < 1000; j++) {
            M3[i][j] = 0.0f;
            for (int k = 0; k < 1000; k++) {
                M3[i][j] += M1[i][k] * M2[k][j];
            }
        }
    }
}`)
	g1 := mod.FunctionByName("gemm1")
	g2 := mod.FunctionByName("gemm2")
	if g1 == nil || g2 == nil {
		t.Fatal("missing functions")
	}
	if got := countOp(g2, ir.OpMul); got < 3 {
		t.Errorf("gemm2 should flatten 2D indices with muls, got %d\n%s", got, g2)
	}
	// gemm1 keeps a scalar accumulator (4 phis); gemm2 accumulates in memory
	// via M3[i][j] += so only the 3 iterators need phis.
	if got := countOp(g1, ir.OpPhi); got < 4 {
		t.Errorf("gemm1 phis = %d, want >= 4 (3 iterators + acc)", got)
	}
	if got := countOp(g2, ir.OpPhi); got != 3 {
		t.Errorf("gemm2 phis = %d, want 3 iterators", got)
	}
}

func TestIfElseLowering(t *testing.T) {
	mod := compile(t, `
int maxi(int a, int b) {
    int m = 0;
    if (a > b) { m = a; } else { m = b; }
    return m;
}`)
	f := mod.FunctionByName("maxi")
	if got := countOp(f, ir.OpPhi); got != 1 {
		t.Errorf("phis = %d, want 1 merge phi\n%s", got, f)
	}
	if got := countOp(f, ir.OpICmp); got != 1 {
		t.Errorf("icmps = %d, want 1\n%s", got, f)
	}
}

func TestWhileBreakContinue(t *testing.T) {
	mod := compile(t, `
int count(int n) {
    int i = 0;
    int c = 0;
    while (1) {
        if (i >= n) { break; }
        i = i + 1;
        if (i % 2 == 0) { continue; }
        c = c + 1;
    }
    return c;
}`)
	f := mod.FunctionByName("count")
	if got := countOp(f, ir.OpSRem); got != 1 {
		t.Errorf("srems = %d, want 1\n%s", got, f)
	}
}

func TestMathBuiltins(t *testing.T) {
	mod := compile(t, `
double dist(double x, double y) {
    return sqrt(x*x + y*y) + fabs(x) + pow(x, 2.0) + exp(y) + log(x) + sin(x) + cos(y) + floor(x);
}`)
	f := mod.FunctionByName("dist")
	for _, op := range []ir.Opcode{ir.OpSqrt, ir.OpFAbs, ir.OpPow, ir.OpExp, ir.OpLog, ir.OpSin, ir.OpCos, ir.OpFloor} {
		if got := countOp(f, op); got != 1 {
			t.Errorf("%s count = %d, want 1", op, got)
		}
	}
}

func TestCasts(t *testing.T) {
	mod := compile(t, `
double mix(int i, long l, float f, double d) {
    double a = i;
    double b = l;
    double c = f;
    int e = (int) d;
    long g = i;
    float h = (float) d;
    return a + b + c + e + g + h;
}`)
	f := mod.FunctionByName("mix")
	if got := countOp(f, ir.OpSIToFP); got < 3 {
		t.Errorf("sitofp = %d, want >= 3\n%s", got, f)
	}
	if got := countOp(f, ir.OpFPToSI); got != 1 {
		t.Errorf("fptosi = %d, want 1\n%s", got, f)
	}
	if got := countOp(f, ir.OpFPTrunc); got != 1 {
		t.Errorf("fptrunc = %d, want 1\n%s", got, f)
	}
	if got := countOp(f, ir.OpFPExt); got != 2 {
		// float c = f (fpext) plus promoting h in the mixed-type sum.
		t.Errorf("fpext = %d, want 2\n%s", got, f)
	}
}

func TestCallBetweenFunctions(t *testing.T) {
	mod := compile(t, `
double square(double x) { return x * x; }
double use(double v) { return square(v) + square(2.0); }
`)
	f := mod.FunctionByName("use")
	if got := countOp(f, ir.OpCall); got != 2 {
		t.Errorf("calls = %d, want 2\n%s", got, f)
	}
}

func TestLocalArray(t *testing.T) {
	mod := compile(t, `
int histo_local(int* data, int n) {
    int bins[8];
    for (int i = 0; i < 8; i++) { bins[i] = 0; }
    for (int i = 0; i < n; i++) {
        bins[data[i] % 8] += 1;
    }
    return bins[0];
}`)
	f := mod.FunctionByName("histo_local")
	if got := countOp(f, ir.OpAlloca); got != 1 {
		t.Errorf("allocas = %d, want exactly the array\n%s", got, f)
	}
}

func TestPointerToPointer(t *testing.T) {
	mod := compile(t, `
double cell(double** rows, int i, int j) {
    return rows[i][j];
}`)
	f := mod.FunctionByName("cell")
	if got := countOp(f, ir.OpLoad); got != 2 {
		t.Errorf("loads = %d, want 2 (row pointer + element)\n%s", got, f)
	}
}

func TestLogicalOperators(t *testing.T) {
	mod := compile(t, `
int inrange(int x, int lo, int hi) {
    if (x >= lo && x < hi || x == 0) { return 1; }
    return 0;
}`)
	f := mod.FunctionByName("inrange")
	if got := countOp(f, ir.OpSelect); got != 2 {
		t.Errorf("selects = %d, want 2 (&& and ||)\n%s", got, f)
	}
}

func TestSemanticsErrors(t *testing.T) {
	bads := map[string]string{
		"undefined var":    `void f() { x = 1; }`,
		"undefined func":   `void f() { g(); }`,
		"redeclaration":    `void f() { int x; int x; }`,
		"mod on float":     `double f(double a) { return a % 2.0; }`,
		"break outside":    `void f() { break; }`,
		"continue outside": `void f() { continue; }`,
		"assign to array":  `void f(int n) { double a[4]; a = 0; }`,
		"index scalar":     `void f(int n) { n[0] = 1; }`,
		"bad arg count":    `void g(int a) {} void f() { g(); }`,
		"negate pointer":   `void f(double *p) { double *q = -p; }`,
		"math no args":     `double f(double a) { return a + fabs(); }`,
		"pow one arg":      `double f(double a) { return pow(a); }`,
		"empty cast call":  `int f() { return __cast_int(); }`,
	}
	for what, src := range bads {
		if _, err := Compile("bad", src); err == nil {
			t.Errorf("%s: expected error for %q", what, src)
		}
	}
}

func TestVoidReturnInsertion(t *testing.T) {
	mod := compile(t, `void f(int n) { if (n > 0) { return; } }`)
	f := mod.FunctionByName("f")
	rets := countOp(f, ir.OpRet)
	if rets < 2 {
		t.Errorf("rets = %d, want >= 2 (explicit + implicit)\n%s", rets, f)
	}
}

func TestCompoundAssignAndIncForms(t *testing.T) {
	mod := compile(t, `
int forms(int n) {
    int x = 0;
    x += n; x -= 1; x *= 2; x /= 3;
    x++; ++x; x--; --x;
    return x;
}`)
	f := mod.FunctionByName("forms")
	if got := countOp(f, ir.OpAdd); got != 3 {
		t.Errorf("adds = %d, want 3 (+=, x++, ++x)\n%s", got, f)
	}
	if got := countOp(f, ir.OpSub); got != 3 {
		t.Errorf("subs = %d, want 3\n%s", got, f)
	}
}

func TestDeadCodeAfterReturn(t *testing.T) {
	mod := compile(t, `
int f(int n) {
    return n;
    n = n + 1;
}`)
	f := mod.FunctionByName("f")
	// The unreachable increment must be pruned along with its block.
	for _, b := range f.Blocks {
		if strings.HasPrefix(b.Ident, "dead") {
			t.Errorf("dead block survived:\n%s", f)
		}
	}
}

func TestNestedLoopDominance(t *testing.T) {
	// A regression guard: triple nesting with accumulators must verify and
	// keep exactly one phi per loop level plus one for the accumulator.
	mod := compile(t, `
float triple(int n) {
    float acc = 0.0f;
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++)
            for (int k = 0; k < n; k++)
                acc += 1.0f;
    return acc;
}`)
	f := mod.FunctionByName("triple")
	phis := countOp(f, ir.OpPhi)
	// 3 iterators + acc carried through 3 loop headers = 6 phis.
	if phis < 4 || phis > 7 {
		t.Errorf("phis = %d, expected between 4 and 7\n%s", phis, f)
	}
}

// TestRedefinitionRejected pins that a second definition of a function name
// is a compile error: lowering keeps one declaration per name, so a first
// body lowered against the second's shorter parameter list would index past
// its end.
func TestRedefinitionRejected(t *testing.T) {
	_, err := Compile("redef", `void A(int m, int n){} void A(int m){}`)
	if err == nil || !strings.Contains(err.Error(), "redefinition of A") {
		t.Fatalf("err = %v, want a redefinition error", err)
	}
}
