package transform

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/detect"
	"repro/internal/hetero"
	"repro/internal/interp"
	"repro/internal/ir"
)

// roundTrip compiles src twice, detects the single expected idiom, applies
// the transformation to one copy, runs both under the interpreter on the
// same inputs and compares every buffer byte for byte.
func roundTrip(t *testing.T, src, fnName, wantIdiom, backend string,
	setup func(m *interp.Machine) []interp.Value) (*APICall, *hetero.Ledger) {
	t.Helper()

	orig, err := cc.Compile("orig", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	xformed, err := cc.Compile("xform", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res := detectModule(t, xformed, wantIdiom)
	var inst *detect.Instance
	for i := range res.Instances {
		if res.Instances[i].Idiom.Name == wantIdiom && res.Instances[i].Function.Ident == fnName {
			inst = &res.Instances[i]
			break
		}
	}
	if inst == nil {
		for _, in := range res.Instances {
			t.Logf("found: %s in %s", in.Idiom.Name, in.Function.Ident)
		}
		t.Fatalf("idiom %s not detected in %s", wantIdiom, fnName)
	}
	call, err := Apply(xformed, *inst, backend)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !strings.HasPrefix(call.Extern, backend+".") {
		t.Errorf("extern %q lacks backend prefix", call.Extern)
	}

	// Original run.
	m1 := interp.NewMachine(orig)
	args1 := setup(m1)
	r1, err := m1.Exec(orig.FunctionByName(fnName), args1...)
	if err != nil {
		t.Fatalf("exec original: %v", err)
	}

	// Transformed run on identical fresh inputs.
	m2 := interp.NewMachine(xformed)
	ledger := &hetero.Ledger{}
	if err := hetero.Bind(m2, ledger); err != nil {
		t.Fatalf("bind: %v", err)
	}
	args2 := setup(m2)
	r2, err := m2.Exec(xformed.FunctionByName(fnName), args2...)
	if err != nil {
		t.Fatalf("exec transformed: %v\n%s", err, xformed.FunctionByName(fnName))
	}

	if r1.String() != r2.String() {
		t.Errorf("return values differ: %s vs %s", r1, r2)
	}
	for i := range args1 {
		if !args1[i].IsPtr() {
			continue
		}
		b1, b2 := args1[i].Ptr().Buf, args2[i].Ptr().Buf
		if b1 == nil || b2 == nil {
			continue
		}
		if string(b1.Data) != string(b2.Data) {
			t.Errorf("buffer %s differs after transformation", b1.Name)
		}
	}
	if len(ledger.Calls) == 0 {
		t.Error("no API calls recorded")
	}
	return call, ledger
}

func f64buf(name string, vals []float64) (*interp.Buffer, interp.Value) {
	b := interp.NewBuffer(name, len(vals)*8)
	for i, v := range vals {
		b.SetFloat64(i, v)
	}
	return b, interp.PtrValue(interp.Pointer{Buf: b})
}

func f32buf(name string, vals []float32) (*interp.Buffer, interp.Value) {
	b := interp.NewBuffer(name, len(vals)*4)
	for i, v := range vals {
		b.SetFloat32(i, v)
	}
	return b, interp.PtrValue(interp.Pointer{Buf: b})
}

func i32buf(name string, vals []int32) (*interp.Buffer, interp.Value) {
	b := interp.NewBuffer(name, len(vals)*4)
	for i, v := range vals {
		b.SetInt32(i, v)
	}
	return b, interp.PtrValue(interp.Pointer{Buf: b})
}

func randF64(n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

func TestRoundTripReduction(t *testing.T) {
	call, _ := roundTrip(t, `
double sum(double* a, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s = s + a[i]*a[i]; }
    return s;
}`, "sum", "Reduction", "lift", func(m *interp.Machine) []interp.Value {
		rng := rand.New(rand.NewSource(1))
		_, p := f64buf("a", randF64(64, rng))
		return []interp.Value{p, interp.IntValue(64)}
	})
	if call.Kernel == nil {
		t.Error("reduction must outline a kernel")
	}
	if !strings.Contains(call.Extern, "#") {
		t.Error("extern must embed the kernel name")
	}
}

func TestRoundTripReductionWithBranch(t *testing.T) {
	roundTrip(t, `
double maxv(double* a, int n) {
    double m = 0.0;
    for (int i = 0; i < n; i++) {
        if (a[i] > m) { m = a[i]; }
    }
    return m;
}`, "maxv", "Reduction", "lift", func(m *interp.Machine) []interp.Value {
		rng := rand.New(rand.NewSource(7))
		_, p := f64buf("a", randF64(100, rng))
		return []interp.Value{p, interp.IntValue(100)}
	})
}

func TestRoundTripSPMV(t *testing.T) {
	call, ledger := roundTrip(t, `
void spmv(int m, double* a, int* rowstr, int* colidx, double* z, double* r) {
    for (int j = 0; j < m; j++) {
        double d = 0.0;
        for (int k = rowstr[j]; k < rowstr[j+1]; k++) {
            d = d + a[k] * z[colidx[k]];
        }
        r[j] = d;
    }
}`, "spmv", "SPMV", "cusparse", func(m *interp.Machine) []interp.Value {
		// 3x3 sparse matrix, 5 non-zeros.
		_, aP := f64buf("a", []float64{1, 2, 3, 4, 5})
		_, rowP := i32buf("rowstr", []int32{0, 2, 3, 5})
		_, colP := i32buf("colidx", []int32{0, 2, 1, 0, 2})
		_, zP := f64buf("z", []float64{10, 20, 30})
		_, rP := f64buf("r", make([]float64, 3))
		return []interp.Value{interp.IntValue(3), aP, rowP, colP, zP, rP}
	})
	if !call.Unsound {
		t.Error("sparse transformation must be flagged unsound (§6.3)")
	}
	if ledger.Calls[0].API != "spmv" {
		t.Errorf("ledger API = %s", ledger.Calls[0].API)
	}
}

func TestRoundTripGEMMStyle1(t *testing.T) {
	call, _ := roundTrip(t, `
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
}`, "gemm", "GEMM", "mkl", func(m *interp.Machine) []interp.Value {
		rng := rand.New(rand.NewSource(3))
		mk := func(n int) []float32 {
			o := make([]float32, n)
			for i := range o {
				o[i] = float32(rng.NormFloat64())
			}
			return o
		}
		const M, N, K = 7, 5, 6
		_, aP := f32buf("A", mk(M*K))
		_, bP := f32buf("B", mk(N*K))
		_, cP := f32buf("C", mk(M*N))
		return []interp.Value{
			interp.IntValue(M), interp.IntValue(N), interp.IntValue(K),
			aP, interp.IntValue(M), bP, interp.IntValue(N),
			cP, interp.IntValue(M),
			interp.FloatValue(1.5), interp.FloatValue(0.5),
		}
	})
	if call.Kernel != nil {
		t.Error("GEMM is a library call; no kernel expected")
	}
}

func TestRoundTripGEMMStyle2(t *testing.T) {
	roundTrip(t, `
void gemm2(float M1[16][16], float M2[16][16], float M3[16][16]) {
    for (int i = 0; i < 16; i++) {
        for (int j = 0; j < 16; j++) {
            M3[i][j] = 0.0f;
            for (int k = 0; k < 16; k++) {
                M3[i][j] += M1[i][k] * M2[k][j];
            }
        }
    }
}`, "gemm2", "GEMM", "cublas", func(m *interp.Machine) []interp.Value {
		rng := rand.New(rand.NewSource(5))
		mk := func(n int) []float32 {
			o := make([]float32, n)
			for i := range o {
				o[i] = float32(rng.NormFloat64())
			}
			return o
		}
		_, aP := f32buf("M1", mk(16*16))
		_, bP := f32buf("M2", mk(16*16))
		_, cP := f32buf("M3", mk(16*16))
		return []interp.Value{aP, bP, cP}
	})
}

func TestRoundTripHistogram(t *testing.T) {
	roundTrip(t, `
void histo(int* data, int* bins, int n) {
    for (int i = 0; i < n; i++) {
        bins[data[i]] += 1;
    }
}`, "histo", "Histogram", "lift", func(m *interp.Machine) []interp.Value {
		rng := rand.New(rand.NewSource(11))
		data := make([]int32, 200)
		for i := range data {
			data[i] = int32(rng.Intn(16))
		}
		_, dP := i32buf("data", data)
		_, bP := i32buf("bins", make([]int32, 16))
		return []interp.Value{dP, bP, interp.IntValue(200)}
	})
}

func TestRoundTripStencil1(t *testing.T) {
	roundTrip(t, `
void jacobi(double* in, double* out, int n) {
    for (int i = 1; i < n - 1; i++) {
        out[i] = (in[i-1] + in[i] + in[i+1]) / 3.0;
    }
}`, "jacobi", "Stencil1", "halide", func(m *interp.Machine) []interp.Value {
		rng := rand.New(rand.NewSource(13))
		_, inP := f64buf("in", randF64(64, rng))
		_, outP := f64buf("out", make([]float64, 64))
		return []interp.Value{inP, outP, interp.IntValue(64)}
	})
}

func TestRoundTripStencil2(t *testing.T) {
	roundTrip(t, `
void jacobi2(double* in, double* out, int n, int m) {
    for (int i = 1; i < n - 1; i++) {
        for (int j = 1; j < m - 1; j++) {
            out[i*32 + j] = 0.25 * (in[(i-1)*32 + j] + in[(i+1)*32 + j]
                                  + in[i*32 + (j-1)] + in[i*32 + (j+1)]);
        }
    }
}`, "jacobi2", "Stencil2", "halide", func(m *interp.Machine) []interp.Value {
		rng := rand.New(rand.NewSource(17))
		_, inP := f64buf("in", randF64(32*32, rng))
		_, outP := f64buf("out", make([]float64, 32*32))
		return []interp.Value{inP, outP, interp.IntValue(32), interp.IntValue(32)}
	})
}

func TestApplyRejectsUnknownIdiom(t *testing.T) {
	mod, _ := cc.Compile("x", `double s(double* a, int n) { double z = 0.0; for (int i=0;i<n;i++) { z = z + a[i]; } return z; }`)
	res := detectModule(t, mod)
	if len(res.Instances) != 1 {
		t.Fatal("expected one instance")
	}
	// An idiom without a replacement strategy is rejected, whatever its name.
	inst := res.Instances[0]
	inst.Idiom.Name, inst.Idiom.Scheme = "Bogus", ""
	if _, err := Apply(mod, inst, "lift"); err == nil || !strings.Contains(err.Error(), "no translation scheme") {
		t.Fatalf("err = %v, want no translation scheme", err)
	}
}

func TestTransformedIRIsClean(t *testing.T) {
	mod, _ := cc.Compile("x", `
double s(double* a, int n) {
    double z = 0.0;
    for (int i = 0; i < n; i++) { z = z + a[i]; }
    return z;
}`)
	res := detectModule(t, mod)
	call, err := Apply(mod, res.Instances[0], "lift")
	if err != nil {
		t.Fatal(err)
	}
	fn := mod.FunctionByName("s")
	// The loop must be gone: no phis remain in the rewritten function.
	for _, in := range fn.Instructions() {
		if in.Op == ir.OpPhi {
			t.Errorf("phi %%%s survived the transformation:\n%s", in.Ident, fn)
		}
	}
	if got := call.String(); !strings.Contains(got, "lift.reduction#") {
		t.Errorf("call rendering = %q", got)
	}
	if err := ir.VerifyModule(mod); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripMapExtension(t *testing.T) {
	// The §9 future-work Map idiom: a data-parallel loop becomes a per-
	// element kernel launch.
	call, _ := roundTrip(t, `
void scale(double* out, double* in, int n, double a) {
    for (int i = 0; i < n; i++) {
        out[i] = in[i] * a + 1.0;
    }
}`, "scale", "Map", "lift", func(m *interp.Machine) []interp.Value {
		rng := rand.New(rand.NewSource(23))
		_, outP := f64buf("out", make([]float64, 48))
		_, inP := f64buf("in", randF64(48, rng))
		return []interp.Value{outP, inP, interp.IntValue(48), interp.FloatValue(1.5)}
	})
	if call.Kernel == nil {
		t.Error("map must outline a kernel")
	}
}

// TestVectorizedCodeNotExploited pins the paper's §4.3 limitation: low-
// level manual optimizations that distort the canonical IR shape — here a
// four-way unrolled reduction with independent partial accumulators, the
// scalar analogue of SIMD-intrinsic code — cannot be exploited. The solver
// may still report one lane (a partial sum matches the Reduction shape),
// but the transformation refuses it: the loop carries three further
// live-out accumulators that one reduction call cannot produce.
func TestVectorizedCodeNotExploited(t *testing.T) {
	mod, err := cc.Compile("t", `
double sum4(double* a, int n) {
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    for (int i = 0; i < n; i = i + 4) {
        s0 = s0 + a[i];
        s1 = s1 + a[i+1];
        s2 = s2 + a[i+2];
        s3 = s3 + a[i+3];
    }
    return s0 + s1 + s2 + s3;
}`)
	if err != nil {
		t.Fatal(err)
	}
	res := detectModule(t, mod)
	if len(res.Instances) > 1 {
		t.Fatalf("instances = %d, want at most 1 lane", len(res.Instances))
	}
	for _, inst := range res.Instances {
		if _, err := Apply(mod, inst, "lift"); err == nil {
			t.Error("transforming the unrolled lane must be refused")
		}
	}
}

// detectModule runs the sequential reference engine (one worker, no memo)
// over mod, restricted to idms when given.
func detectModule(t *testing.T, mod *ir.Module, idms ...string) *detect.Result {
	t.Helper()
	eng, err := detect.NewEngine(detect.Options{Idioms: idms, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Module(mod)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
