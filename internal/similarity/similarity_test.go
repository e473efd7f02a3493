package similarity_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cc"
	"repro/internal/idioms"
	"repro/internal/ir"
	"repro/internal/similarity"
)

const gemmSrc = `
void gemm(double *A, double *B, double *C, int n) {
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++) {
            double acc = C[i * n + j];
            for (int k = 0; k < n; k++)
                acc = acc + A[i * n + k] * B[k * n + j];
            C[i * n + j] = acc;
        }
}`

const intOnlySrc = `
int count(int *a, int n) {
    int c = 0;
    for (int i = 0; i < n; i++)
        c = c + a[i];
    return c;
}`

func extract(t *testing.T, src string) *similarity.Features {
	t.Helper()
	mod, err := cc.Compile("test.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Functions) == 0 {
		t.Fatal("no functions")
	}
	return similarity.Extract(analysis.Analyze(mod.Functions[0]))
}

func signature(t *testing.T, name string) *similarity.Signature {
	t.Helper()
	for _, idm := range idioms.All() {
		if idm.Name != name {
			continue
		}
		prob, err := idioms.Problem(idm.Top)
		if err != nil {
			t.Fatal(err)
		}
		return similarity.Compile(idm.Name, prob)
	}
	t.Fatalf("unknown idiom %s", name)
	return nil
}

func TestExtractGEMMShape(t *testing.T) {
	f := extract(t, gemmSrc)
	if f.LoopDepth != 3 {
		t.Errorf("LoopDepth = %d, want 3", f.LoopDepth)
	}
	if f.Loops != 3 {
		t.Errorf("Loops = %d, want 3", f.Loops)
	}
	if f.Opcodes[ir.OpFMul] == 0 || f.Opcodes[ir.OpFAdd] == 0 {
		t.Errorf("expected float multiply-add in histogram, got %v", f.Opcodes)
	}
	if f.Accumulators == 0 {
		t.Error("expected at least one accumulator phi")
	}
	if f.MemBases < 3 {
		t.Errorf("MemBases = %d, want >= 3 (A, B, C)", f.MemBases)
	}
}

func TestSignatureGuardsEncodeNestDepth(t *testing.T) {
	for name, want := range map[string]int{"GEMM": 3, "SPMV": 2, "Reduction": 1} {
		if sg := signature(t, name); sg.Guards != want {
			t.Errorf("%s: Guards = %d, want %d", name, sg.Guards, want)
		}
	}
}

func TestScoreZeroOnlyWhenRequiredMissing(t *testing.T) {
	gemm := signature(t, "GEMM")
	intF := extract(t, intOnlySrc)
	gemmF := extract(t, gemmSrc)

	if got := gemm.Score(intF); got != 0 {
		t.Errorf("integer-only function vs GEMM: score %v, want exactly 0", got)
	}
	if missing := gemm.Missing(intF); len(missing) == 0 {
		t.Error("integer-only function should miss required float opcodes")
	}
	if got := gemm.Score(gemmF); got <= 0.5 {
		t.Errorf("GEMM source vs GEMM signature: score %v, want > 0.5", got)
	}
	// Nil signature / features never deprioritize.
	var nilSig *similarity.Signature
	if nilSig.Score(gemmF) != 1 || gemm.Score(nil) != 1 {
		t.Error("nil signature or features must score 1")
	}
}

func TestScoreReservesZeroForImpossible(t *testing.T) {
	// A heuristically hopeless but not disproven pair must stay > 0 so it is
	// never reported as impossible: empty features against a signature with
	// demands but no required opcodes.
	sg := &similarity.Signature{Idiom: "x", Demand: map[ir.Opcode]int{ir.OpFMul: 4}, Guards: 3}
	f := &similarity.Features{Opcodes: map[ir.Opcode]int{}}
	if got := sg.Score(f); got <= 0 {
		t.Errorf("score %v; zero is reserved for provably impossible pairs", got)
	}
}

func TestExplainFamilies(t *testing.T) {
	gemm := signature(t, "GEMM")

	deltas, family := gemm.Explain(extract(t, intOnlySrc))
	if family != "opcode" {
		t.Errorf("integer-only vs GEMM: family %q, want opcode", family)
	}
	joined := strings.Join(deltas, "\n")
	if !strings.Contains(joined, "missing required opcode") {
		t.Errorf("deltas lack missing-opcode line:\n%s", joined)
	}

	// A single float loop has GEMM's opcodes but not its loop nest.
	shallow := extract(t, `
void scale(double *a, int n) {
    for (int i = 0; i < n; i++)
        a[i] = a[i] * 2.0 + 1.0;
}`)
	deltas, family = gemm.Explain(shallow)
	if family == "dataflow" {
		t.Errorf("shallow loop vs GEMM classified dataflow; deltas:\n%s", strings.Join(deltas, "\n"))
	}

	// The full GEMM shape passes every cheap check: rejection (if any) is the
	// solver's.
	if _, family = gemm.Explain(extract(t, gemmSrc)); family != "dataflow" {
		t.Errorf("GEMM source vs GEMM signature: family %q, want dataflow", family)
	}
}

func TestIndirectMemDetectsGather(t *testing.T) {
	csr := extract(t, `
void spmv(double *val, int *col, double *x, double *y, int n) {
    for (int i = 0; i < n; i++)
        y[i] = y[i] + val[i] * x[col[i]];
}`)
	if csr.IndirectMem == 0 {
		t.Error("x[col[i]] gather not counted as indirect access")
	}
	dense := extract(t, gemmSrc)
	if dense.IndirectMem != 0 {
		t.Errorf("dense GEMM counted %d indirect accesses, want 0", dense.IndirectMem)
	}
}
