package idiomatic_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/idiomatic"
)

// nearMissGoldens perturbs one workload per idiom class just enough that the
// class idiom no longer matches, then pins the explain-mode wire diagnostics
// byte for byte: which idioms are reported as near misses, their similarity
// scores, the dominant feature deltas and the rejecting constraint family.
// Any drift in the feature extractor, the signature derivation or the wire
// encoding becomes a reviewed diff. Regenerate with
// `go test ./idiomatic -run TestNearMissGolden -update`.
var nearMissGoldens = []struct {
	name string
	req  idiomatic.DetectRequest
}{
	// Triple float loop with the accumulation twisted (acc*a + b instead of
	// acc + a*b): every opcode GEMM wants is present at full demand, so GEMM
	// tops the near-miss list with a solver-level rejection — the canonical
	// "one constraint away from GEMM" report. The same source anchors
	// scripts/serve_smoke.sh; keep them in sync.
	{"gemm", idiomatic.DetectRequest{Name: "almost_gemm.c", Source: `
void almost_gemm(int n, float* A, float* B, float* C) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            C[i*n + j] = 0.0f;
            float c = 0.0f;
            for (int k = 0; k < n; k++) {
                c = c * A[i*n + k] + B[k*n + j];
            }
            C[i*n + j] = c;
        }
    }
}`}},
	// CSR-style loop nest without the gather: x is read densely, so SPMV's
	// indirection constraints fail while its loop shape scores high.
	{"spmv", idiomatic.DetectRequest{Name: "almost_spmv.c", Source: `
void almost_spmv(int m, double* a, int* rowstr, double* x, double* r) {
    for (int j = 0; j < m; j++) {
        double d = 0.0;
        for (int k = rowstr[j]; k < rowstr[j+1]; k++) {
            d = d + a[k] * x[k];
        }
        r[j] = d;
    }
}`}},
	// Reduction over subtraction: fsub is not the accumulator pattern the
	// Reduction idiom's fadd demand wants.
	{"reduction", idiomatic.DetectRequest{Name: "almost_dot.c", Source: `
double almost_dot(double* x, double* y, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s = s - x[i]*y[i]; }
    return s;
}`}},
	// Histogram whose bin update multiplies instead of increments.
	{"histogram", idiomatic.DetectRequest{Name: "almost_histo.c", Source: `
void almost_histo(int* data, int* bins, int n) {
    for (int i = 0; i < n; i++) {
        bins[data[i]] *= 2;
    }
}`}},
	// 1-D stencil that reads its neighborhood but writes through a stride,
	// breaking the stencil store constraint.
	{"stencil", idiomatic.DetectRequest{Name: "almost_jacobi.c", Source: `
void almost_jacobi(double* in, double* out, int n) {
    for (int i = 1; i < n - 1; i++) {
        out[2*i] = (in[i-1] + in[i] + in[i+1]) / 3.0;
    }
}`}},
}

func TestNearMissGolden(t *testing.T) {
	ctx := context.Background()
	svc, err := idiomatic.NewService(idiomatic.ServiceOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	for _, tc := range nearMissGoldens {
		t.Run(tc.name, func(t *testing.T) {
			req := tc.req
			req.Opts.Explain = true
			res, err := svc.Detect(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if res.Err != "" {
				t.Fatalf("in-band error: %s", res.Err)
			}
			if len(res.NearMisses) == 0 {
				t.Fatal("no near misses — the golden would pin nothing")
			}
			got, err := json.MarshalIndent(res.NearMisses, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "nearmiss_"+tc.name+".golden.json")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./idiomatic -run TestNearMissGolden -update` to create)", err)
			}
			if string(got) != string(want) {
				t.Errorf("near-miss wire diagnostics drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestNearMissOffByDefault pins the opt-in contract: without Opts.Explain the
// wire result carries no near-miss payload at all (omitempty keeps the field
// off the wire for byte-compatibility with pre-explain clients).
func TestNearMissOffByDefault(t *testing.T) {
	svc, err := idiomatic.NewService(idiomatic.ServiceOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	res, err := svc.Detect(context.Background(), nearMissGoldens[0].req)
	if err != nil {
		t.Fatal(err)
	}
	if res.NearMisses != nil {
		t.Fatalf("near misses present without explain: %+v", res.NearMisses)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["near_misses"]; ok {
		t.Error("near_misses field on the wire without explain")
	}
}
