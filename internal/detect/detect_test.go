package detect

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/idioms"
	"repro/internal/ir"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	mod, err := cc.Compile("test", src)
	if err != nil {
		t.Fatalf("cc.Compile: %v", err)
	}
	return mod
}

// sequential detects mod on a one-worker, memo-free engine: the sequential
// reference every other configuration must match.
func sequential(t testing.TB, mod *ir.Module, opts Options) *Result {
	t.Helper()
	opts.Workers, opts.Memo = 1, nil
	eng, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Module(mod)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A module mixing several idioms must report each exactly once with the
// right classification.
func TestModuleMixedIdioms(t *testing.T) {
	mod := compile(t, `
void spmv(int m, double* a, int* rowstr, int* colidx, double* z, double* r) {
    for (int j = 0; j < m; j++) {
        double d = 0.0;
        for (int k = rowstr[j]; k < rowstr[j+1]; k++) {
            d = d + a[k] * z[colidx[k]];
        }
        r[j] = d;
    }
}

double dot(double* x, double* y, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s = s + x[i]*y[i]; }
    return s;
}

void histo(int* data, int* bins, int n) {
    for (int i = 0; i < n; i++) {
        bins[data[i]] += 1;
    }
}

void jacobi(double* in, double* out, int n) {
    for (int i = 1; i < n - 1; i++) {
        out[i] = (in[i-1] + in[i] + in[i+1]) / 3.0;
    }
}`)
	res := sequential(t, mod, Options{})
	counts := res.CountByClass()
	if counts[idioms.ClassSparseMatrixOp] != 1 {
		t.Errorf("sparse ops = %d, want 1", counts[idioms.ClassSparseMatrixOp])
	}
	if counts[idioms.ClassScalarReduction] != 1 {
		t.Errorf("reductions = %d, want 1", counts[idioms.ClassScalarReduction])
	}
	if counts[idioms.ClassHistogram] != 1 {
		t.Errorf("histograms = %d, want 1", counts[idioms.ClassHistogram])
	}
	if counts[idioms.ClassStencil] != 1 {
		t.Errorf("stencils = %d, want 1", counts[idioms.ClassStencil])
	}
	if res.SolverSteps == 0 {
		t.Error("solver steps not recorded")
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not recorded")
	}
}

// Precedence: a GEMM must not double-report its inner loop as a reduction,
// nor its store as a histogram.
func TestPrecedenceGEMM(t *testing.T) {
	mod := compile(t, `
void gemm(int m, int n, int k, float* A, int lda, float* B, int ldb,
          float* C, int ldc, float alpha, float beta) {
    for (int mm = 0; mm < m; mm++) {
        for (int nn = 0; nn < n; nn++) {
            float c = 0.0f;
            for (int i = 0; i < k; i++) {
                c += A[mm + i*lda] * B[nn + i*ldb];
            }
            C[mm + nn*ldc] = C[mm + nn*ldc] * beta + alpha * c;
        }
    }
}`)
	res := sequential(t, mod, Options{})
	if len(res.Instances) != 1 {
		for _, inst := range res.Instances {
			t.Logf("instance: %s", inst.Idiom.Name)
		}
		t.Fatalf("instances = %d, want exactly 1 (the GEMM)", len(res.Instances))
	}
	if res.Instances[0].Idiom.Name != "GEMM" {
		t.Errorf("idiom = %s, want GEMM", res.Instances[0].Idiom.Name)
	}
}

// SPMV precedence over reduction on the same loops.
func TestPrecedenceSPMV(t *testing.T) {
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
	res := sequential(t, mod, Options{})
	if len(res.Instances) != 1 || res.Instances[0].Idiom.Name != "SPMV" {
		for _, inst := range res.Instances {
			t.Logf("instance: %s", inst.Idiom.Name)
		}
		t.Fatalf("want exactly one SPMV instance, got %d instances", len(res.Instances))
	}
}

// Restricting the idiom set must skip others.
func TestOptionsIdiomFilter(t *testing.T) {
	mod := compile(t, `
double dot(double* x, double* y, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s = s + x[i]*y[i]; }
    return s;
}`)
	res := sequential(t, mod, Options{Idioms: []string{"Histogram"}})
	if len(res.Instances) != 0 {
		t.Fatalf("instances = %d, want 0 with Histogram-only filter", len(res.Instances))
	}
}

// TestResolve pins the one roster resolver: no names means the pack's
// default roster (the paper's seven for the built-in pack, every idiom of a
// tenant pack), names resolve in the order given, and an unknown name is an
// error, for NewEngine too.
func TestResolve(t *testing.T) {
	names := func(ros []Resolved) []string {
		var out []string
		for _, r := range ros {
			if r.Prob == nil || r.Sig == nil {
				t.Fatalf("%s resolved without a problem or signature", r.Idiom.Name)
			}
			out = append(out, r.Idiom.Name)
		}
		return out
	}
	ros, err := Resolve(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var paper []string
	for _, idm := range idioms.All() {
		paper = append(paper, idm.Name)
	}
	if got := names(ros); !slices.Equal(got, paper) {
		t.Errorf("built-in default roster = %v, want %v", got, paper)
	}
	if ros, err = Resolve(nil, []string{"Map", "GEMM"}); err != nil || !slices.Equal(names(ros), []string{"Map", "GEMM"}) {
		t.Errorf("named roster = %v, %v", ros, err)
	}
	pack, err := idioms.CompilePack("p", idioms.LibrarySource, []idioms.TopSpec{{Top: "Map"}, {Top: "Reduction"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ros, err = Resolve(pack, nil); err != nil || !slices.Equal(names(ros), []string{"Map", "Reduction"}) {
		t.Errorf("tenant default roster = %v, %v", ros, err)
	}
	if _, err := Resolve(pack, []string{"GEMM"}); err == nil || err.Error() != `unknown idiom "GEMM"` {
		t.Errorf("unknown tenant idiom err = %v", err)
	}
	if _, err := NewEngine(Options{Idioms: []string{"Reduction", "Nope"}}); err == nil ||
		!strings.Contains(err.Error(), `unknown idiom "Nope"`) {
		t.Errorf("NewEngine unknown idiom err = %v", err)
	}
}

// Multiple independent reductions in one function all surface.
func TestMultipleReductions(t *testing.T) {
	mod := compile(t, `
double stats(double* x, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s = s + x[i]; }
    double sq = 0.0;
    for (int i = 0; i < n; i++) { sq = sq + x[i]*x[i]; }
    return s + sq;
}`)
	res := sequential(t, mod, Options{})
	if got := res.CountByClass()[idioms.ClassScalarReduction]; got != 2 {
		t.Fatalf("reductions = %d, want 2", got)
	}
}

// A single-function module: its one instance names the function and carries
// the claims de-duplication keys on.
func TestFunctionEntryPoint(t *testing.T) {
	mod := compile(t, `
double sum(double* a, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s = s + a[i]; }
    return s;
}`)
	res := sequential(t, mod, Options{})
	if len(res.Instances) != 1 {
		t.Fatalf("instances = %d, want 1", len(res.Instances))
	}
	inst := res.Instances[0]
	if inst.Function.Ident != "sum" {
		t.Errorf("function = %s", inst.Function.Ident)
	}
	if len(inst.Claims) == 0 {
		t.Error("claims must not be empty")
	}
}

// Code with no idioms yields a clean empty result.
func TestNoIdioms(t *testing.T) {
	mod := compile(t, `
int collatz(int x) {
    int steps = 0;
    while (x > 1) {
        if (x % 2 == 0) { x = x / 2; } else { x = 3 * x + 1; }
        steps++;
    }
    return steps;
}`)
	res := sequential(t, mod, Options{})
	if len(res.Instances) != 0 {
		for _, inst := range res.Instances {
			t.Logf("unexpected: %s %s", inst.Idiom.Name, inst.Solution)
		}
		t.Fatalf("instances = %d, want 0", len(res.Instances))
	}
}
