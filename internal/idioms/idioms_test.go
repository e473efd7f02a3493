package idioms

import (
	"encoding/hex"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cc"
	"repro/internal/constraint"
)

func TestLibraryParses(t *testing.T) {
	prog, err := Library()
	if err != nil {
		t.Fatalf("Library: %v", err)
	}
	for _, name := range []string{"SESE", "For", "ForNest", "GEMM", "SPMV",
		"Reduction", "Histogram", "Stencil1", "Stencil2", "Stencil3",
		"DotProductLoop", "KernelFunction", "FactorizationOpportunity"} {
		if prog.Specs[name] == nil {
			t.Errorf("library missing constraint %s", name)
		}
	}
}

func TestLibraryLineCount(t *testing.T) {
	n := LibraryLineCount()
	// The paper quotes ≈500 lines for the complete idiom set.
	if n < 250 || n > 800 {
		t.Errorf("library is %d non-empty lines, expected a few hundred", n)
	}
	t.Logf("idiom library: %d non-empty IDL lines", n)
}

func TestAllProblemsCompile(t *testing.T) {
	for _, idm := range All() {
		if _, err := Problem(idm.Top); err != nil {
			t.Errorf("compile %s: %v", idm.Name, err)
		}
	}
}

func solveOn(t *testing.T, top, csrc, fn string) []constraint.Solution {
	t.Helper()
	prog, err := Library()
	if err != nil {
		t.Fatal(err)
	}
	prob, err := constraint.Compile(prog, top, constraint.CompileOptions{})
	if err != nil {
		t.Fatalf("compile %s: %v", top, err)
	}
	mod, err := cc.Compile("test", csrc)
	if err != nil {
		t.Fatalf("cc.Compile: %v", err)
	}
	f := mod.FunctionByName(fn)
	if f == nil {
		t.Fatalf("function %s not found", fn)
	}
	info := analysis.Analyze(f)
	return constraint.NewSolver(prob, info).Solve()
}

// sumSource is a plain array sum, one Reduction instance.
const sumSource = `
double sum(double *a, int n) {
  double s = 0.0;
  for (int i = 0; i < n; i++) { s = s + a[i]; }
  return s;
}`

func analyzeSum(t *testing.T) *analysis.Info {
	t.Helper()
	mod, err := cc.Compile("sum.c", sumSource)
	if err != nil {
		t.Fatal(err)
	}
	return analysis.Analyze(mod.FunctionByName("sum"))
}

// spillKeys is a constraint.SpillStore that only records the keys written.
type spillKeys []constraint.SpillKey

func (k *spillKeys) Load(constraint.SpillKey) ([]byte, bool) { return nil, false }
func (k *spillKeys) Write(key constraint.SpillKey, _ []byte) error {
	*k = append(*k, key)
	return nil
}
func (k *spillKeys) WriteAsync(key constraint.SpillKey, _ []byte, done func(error)) bool {
	*k = append(*k, key)
	done(nil)
	return true
}

// builtinReductionSpillKey is the disk address of the built-in Reduction
// solve of sumSource. State directories written by any build address their
// spilled entries the same way, so this constant may only change together
// with the library source, the fingerprint or the identity derivation, and
// such a change makes every existing state directory re-solve.
const builtinReductionSpillKey = "50886c963fb00eee4a828f1319e4bf539783b26f921210b582193f99569558d9"

// TestBuiltinSpillKeyPinned pins the spill address of one built-in solve, so
// an identity change has to be deliberate.
func TestBuiltinSpillKeyPinned(t *testing.T) {
	prob, err := Problem("Reduction")
	if err != nil {
		t.Fatal(err)
	}
	info := analyzeSum(t)
	s := constraint.NewSolver(prob, info)
	var keys spillKeys
	memo := constraint.NewSolveCache()
	memo.AttachStore(&keys)
	memo.Put(prob, constraint.FingerprintInfo(info), info, s.Solve(), s.Steps)
	if len(keys) != 1 {
		t.Fatalf("spilled %d entries, want 1", len(keys))
	}
	if got := hex.EncodeToString(keys[0][:]); got != builtinReductionSpillKey {
		t.Errorf("built-in Reduction spill key = %s, want %s", got, builtinReductionSpillKey)
	}
}

func TestForMatchesCountedLoop(t *testing.T) {
	sols := solveOn(t, "For", `
double sum(double* a, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s = s + a[i]; }
    return s;
}`, "sum")
	if len(sols) != 1 {
		t.Fatalf("For solutions = %d, want 1", len(sols))
	}
	sol := sols[0]
	if sol["iterator"] == nil || sol["guard"] == nil || sol["begin"] == nil {
		t.Fatalf("missing loop variables: %s", sol)
	}
}

func TestForNestMatchesTwoLoops(t *testing.T) {
	prog, err := Library()
	if err != nil {
		t.Fatal(err)
	}
	prob, err := constraint.Compile(prog, "ForNest", constraint.CompileOptions{Params: map[string]int{"N": 2}})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := cc.Compile("test", `
void init(double* a, int n, int m) {
    for (int i = 0; i < n; i++)
        for (int j = 0; j < m; j++)
            a[i*m+j] = 0.0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	info := analysis.Analyze(mod.FunctionByName("init"))
	sols := constraint.NewSolver(prob, info).Solve()
	if len(sols) != 1 {
		t.Fatalf("ForNest(2) solutions = %d, want 1", len(sols))
	}
}

// Figure 8, style 1: BLAS-style GEMM with strides and alpha/beta epilogue.
const gemmStyle1 = `
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
}`

// Figure 8, style 2: textbook triple loop on 2D arrays.
const gemmStyle2 = `
void gemm2(float M1[500][500], float M2[500][500], float M3[500][500]) {
    for (int i = 0; i < 500; i++) {
        for (int j = 0; j < 500; j++) {
            M3[i][j] = 0.0f;
            for (int k = 0; k < 500; k++) {
                M3[i][j] += M1[i][k] * M2[k][j];
            }
        }
    }
}`

func TestGEMMStyle1(t *testing.T) {
	sols := solveOn(t, "GEMM", gemmStyle1, "gemm1")
	if len(sols) == 0 {
		t.Fatal("GEMM did not match the BLAS-style loop nest (Figure 8 top)")
	}
}

func TestGEMMStyle2(t *testing.T) {
	sols := solveOn(t, "GEMM", gemmStyle2, "gemm2")
	if len(sols) == 0 {
		t.Fatal("GEMM did not match the textbook loop nest (Figure 8 bottom)")
	}
}

func TestGEMMNegative(t *testing.T) {
	// A triple loop that is not a matrix multiplication (no dot product).
	sols := solveOn(t, "GEMM", `
void notgemm(float* A, float* B, float* C, int n) {
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++)
            for (int k = 0; k < n; k++)
                C[i + j*n] = A[i + k*n] + B[j + k*n];
}`, "notgemm")
	if len(sols) != 0 {
		t.Fatalf("GEMM matched a non-GEMM nest: %d solutions", len(sols))
	}
}

// The paper's Figure 4 CSR sparse matrix-vector kernel from NAS CG.
const spmvSrc = `
void spmv(int m, double* a, int* rowstr, int* colidx, double* z, double* r) {
    for (int j = 0; j < m; j++) {
        double d = 0.0;
        for (int k = rowstr[j]; k < rowstr[j+1]; k++) {
            d = d + a[k] * z[colidx[k]];
        }
        r[j] = d;
    }
}`

func TestSPMVMatches(t *testing.T) {
	sols := solveOn(t, "SPMV", spmvSrc, "spmv")
	if len(sols) == 0 {
		t.Fatal("SPMV did not match the Figure 4 CSR kernel")
	}
	sol := sols[0]
	// Spot-check the Figure 5 variable assignment shape.
	for _, v := range []string{"iterator", "inner.iterator", "inner.iter_begin",
		"inner.iter_end", "idx_read.value", "indir_read.value", "seq_read.value",
		"output.address"} {
		if sol[v] == nil {
			t.Errorf("solution missing %s\n%s", v, sol)
		}
	}
}

func TestSPMVNegativeOnDense(t *testing.T) {
	sols := solveOn(t, "SPMV", `
void densemv(int n, double* a, double* x, double* y) {
    for (int i = 0; i < n; i++) {
        double d = 0.0;
        for (int j = 0; j < n; j++) {
            d = d + a[i*n+j] * x[j];
        }
        y[i] = d;
    }
}`, "densemv")
	if len(sols) != 0 {
		t.Fatalf("SPMV matched a dense kernel: %d solutions", len(sols))
	}
}

func TestReductionMatchesSum(t *testing.T) {
	sols := solveOn(t, "Reduction", `
double sum(double* a, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s = s + a[i]; }
    return s;
}`, "sum")
	if len(sols) == 0 {
		t.Fatal("Reduction did not match a plain sum")
	}
}

func TestReductionMatchesDotAndKernel(t *testing.T) {
	sols := solveOn(t, "Reduction", `
double kernelred(double* x, double* y, int n) {
    double acc = 0.0;
    for (int i = 0; i < n; i++) {
        acc = acc + sqrt(x[i]*x[i] + y[i]*y[i]);
    }
    return acc;
}`, "kernelred")
	if len(sols) == 0 {
		t.Fatal("Reduction did not match a kernel-function reduction")
	}
}

func TestReductionMatchesMax(t *testing.T) {
	sols := solveOn(t, "Reduction", `
double maxval(double* a, int n) {
    double m = 0.0;
    for (int i = 0; i < n; i++) {
        if (a[i] > m) { m = a[i]; }
    }
    return m;
}`, "maxval")
	if len(sols) == 0 {
		t.Fatal("Reduction did not match a max reduction")
	}
}

func TestReductionRejectsImpureKernel(t *testing.T) {
	// The kernel reads memory not indexed by the iterator (z[c[i]] pattern):
	// the data-flow closure must reject it (it is SPMV-shaped, not a scalar
	// reduction over iterator-indexed reads).
	sols := solveOn(t, "Reduction", `
double indirect(double* a, int* c, double* z, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s = s + a[i] * z[c[i]];
    }
    return s;
}`, "indirect")
	if len(sols) != 0 {
		t.Fatalf("Reduction matched an impure kernel: %d solutions", len(sols))
	}
}

func TestHistogramMatches(t *testing.T) {
	sols := solveOn(t, "Histogram", `
void histo(int* data, int* bins, int n) {
    for (int i = 0; i < n; i++) {
        bins[data[i]] += 1;
    }
}`, "histo")
	if len(sols) == 0 {
		t.Fatal("Histogram did not match the basic histogram")
	}
}

func TestHistogramWithIndexKernel(t *testing.T) {
	sols := solveOn(t, "Histogram", `
void histo2(double* data, int* bins, int n, int nbins) {
    for (int i = 0; i < n; i++) {
        int b = (int)(data[i] * 10.0) % nbins;
        bins[b] += 1;
    }
}`, "histo2")
	if len(sols) == 0 {
		t.Fatal("Histogram did not match a computed-index histogram")
	}
}

func TestHistogramRejectsVectorScale(t *testing.T) {
	// y[i] = y[i] * 2 is an iterator-indexed RMW, not a histogram.
	sols := solveOn(t, "Histogram", `
void scale(double* y, int n) {
    for (int i = 0; i < n; i++) {
        y[i] = y[i] * 2.0;
    }
}`, "scale")
	if len(sols) != 0 {
		t.Fatalf("Histogram matched a vector scale: %d solutions", len(sols))
	}
}

func TestStencil1Matches(t *testing.T) {
	sols := solveOn(t, "Stencil1", `
void jacobi1d(double* in, double* out, int n) {
    for (int i = 1; i < n - 1; i++) {
        out[i] = (in[i-1] + in[i] + in[i+1]) / 3.0;
    }
}`, "jacobi1d")
	if len(sols) == 0 {
		t.Fatal("Stencil1 did not match a 1D Jacobi")
	}
}

func TestStencil1RejectsCopy(t *testing.T) {
	// A copy loop reads only one cell: the collect minimum of 2 reads fails.
	sols := solveOn(t, "Stencil1", `
void copy(double* in, double* out, int n) {
    for (int i = 0; i < n; i++) {
        out[i] = in[i];
    }
}`, "copy")
	if len(sols) != 0 {
		t.Fatalf("Stencil1 matched a copy loop: %d solutions", len(sols))
	}
}

func TestStencil2Matches(t *testing.T) {
	sols := solveOn(t, "Stencil2", `
void jacobi2d(double* in, double* out, int n, int m) {
    for (int i = 1; i < n - 1; i++) {
        for (int j = 1; j < m - 1; j++) {
            out[i*500 + j] = 0.25 * (in[(i-1)*500 + j] + in[(i+1)*500 + j]
                                   + in[i*500 + (j-1)] + in[i*500 + (j+1)]);
        }
    }
}`, "jacobi2d")
	if len(sols) == 0 {
		t.Fatal("Stencil2 did not match a 2D Jacobi")
	}
}

func TestStencil3Matches(t *testing.T) {
	sols := solveOn(t, "Stencil3", `
void stencil7(double* in, double* out, int n) {
    for (int i = 1; i < n - 1; i++) {
        for (int j = 1; j < n - 1; j++) {
            for (int k = 1; k < n - 1; k++) {
                out[(i*64 + j)*64 + k] =
                    in[(i*64 + j)*64 + k] * -6.0
                  + in[((i-1)*64 + j)*64 + k] + in[((i+1)*64 + j)*64 + k]
                  + in[(i*64 + (j-1))*64 + k] + in[(i*64 + (j+1))*64 + k]
                  + in[(i*64 + j)*64 + (k-1)] + in[(i*64 + j)*64 + (k+1)];
            }
        }
    }
}`, "stencil7")
	if len(sols) == 0 {
		t.Fatal("Stencil3 did not match a 7-point stencil")
	}
}
