package idiomatic_test

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"repro/idiomatic"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// planGoldens covers every idiom class of Table 1 (plus the Map extension):
// the wire-encoded APICall plans — extern, backend selection, soundness
// flags, runtime checks, ranked per-device offload estimates — are pinned
// byte for byte against testdata goldens, so any drift in the transform
// schemes, the backend profiles or the wire encoding is a reviewed diff.
var planGoldens = []struct {
	name string
	req  idiomatic.MatchRequest
}{
	{"gemm", idiomatic.MatchRequest{Name: "gemm.c", Source: `
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
}`}},
	{"spmv", idiomatic.MatchRequest{Name: "spmv.c", Source: `
void spmv(int m, double* a, int* rowstr, int* colidx, double* z, double* r) {
    for (int j = 0; j < m; j++) {
        double d = 0.0;
        for (int k = rowstr[j]; k < rowstr[j+1]; k++) {
            d = d + a[k] * z[colidx[k]];
        }
        r[j] = d;
    }
}`}},
	{"reduction", idiomatic.MatchRequest{Name: "dot.c", Source: `
double dot(double* x, double* y, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s = s + x[i]*y[i]; }
    return s;
}`}},
	{"histogram", idiomatic.MatchRequest{Name: "histo.c", Source: `
void histo(int* data, int* bins, int n) {
    for (int i = 0; i < n; i++) {
        bins[data[i]] += 1;
    }
}`}},
	{"stencils", idiomatic.MatchRequest{Name: "stencils.c", Source: `
void jacobi1d(double* in, double* out, int n) {
    for (int i = 1; i < n - 1; i++) {
        out[i] = (in[i-1] + in[i] + in[i+1]) / 3.0;
    }
}

void jacobi2d(double* in, double* out, int n, int m) {
    for (int i = 1; i < n - 1; i++) {
        for (int j = 1; j < m - 1; j++) {
            out[i*500 + j] = 0.25 * (in[(i-1)*500 + j] + in[(i+1)*500 + j]
                                   + in[i*500 + (j-1)] + in[i*500 + (j+1)]);
        }
    }
}

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
}`}},
	{"map", idiomatic.MatchRequest{Name: "map.c", Idioms: []string{"Map"}, Source: `
void scale(double* out, double* in, int n, double a) {
    for (int i = 0; i < n; i++) {
        out[i] = in[i] * a + 1.0;
    }
}`}},
	{"gemm_cpu", idiomatic.MatchRequest{Name: "gemm.c", Target: "CPU", Source: `
void gemm2(float M1[500][500], float M2[500][500], float M3[500][500]) {
    for (int i = 0; i < 500; i++) {
        for (int j = 0; j < 500; j++) {
            M3[i][j] = 0.0f;
            for (int k = 0; k < 500; k++) {
                M3[i][j] += M1[i][k] * M2[k][j];
            }
        }
    }
}`}},
}

func TestMatchPlansGolden(t *testing.T) {
	ctx := context.Background()
	svc, err := idiomatic.NewService(idiomatic.ServiceOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	for _, tc := range planGoldens {
		t.Run(tc.name, func(t *testing.T) {
			res, err := svc.Match(ctx, tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if res.Err != "" {
				t.Fatalf("in-band error: %s", res.Err)
			}
			if len(res.Findings) == 0 {
				t.Fatal("no findings — the golden would pin nothing")
			}
			if len(res.Plans) != len(res.Findings) {
				t.Fatalf("%d plans for %d findings", len(res.Plans), len(res.Findings))
			}
			for i, p := range res.Plans {
				if p.Err != "" {
					t.Errorf("plan %d (%s in %s) failed: %s", i, p.Idiom, p.Function, p.Err)
				}
			}
			got, err := json.MarshalIndent(res.Plans, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "plans_"+tc.name+".golden.json")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./idiomatic -run TestMatchPlansGolden -update` to create)", err)
			}
			if string(got) != string(want) {
				t.Errorf("wire plans drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestPlanStringsShareRendering: a plan's Extern and Kernel are slices of
// its Rendering, which begins with the extern, so a client holding many
// results keeps one string per plan, not three.
func TestPlanStringsShareRendering(t *testing.T) {
	ctx := context.Background()
	svc, err := idiomatic.NewService(idiomatic.ServiceOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	within := func(part, whole string) bool {
		p, w := uintptr(unsafe.Pointer(unsafe.StringData(part))), uintptr(unsafe.Pointer(unsafe.StringData(whole)))
		return p >= w && p+uintptr(len(part)) <= w+uintptr(len(whole))
	}
	kernels := 0
	for _, tc := range planGoldens {
		res, err := svc.Match(ctx, tc.req)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Plans {
			if p.Err != "" {
				continue
			}
			if unsafe.StringData(p.Extern) != unsafe.StringData(p.Rendering) {
				t.Errorf("%s: extern %q is not the start of rendering %q", tc.name, p.Extern, p.Rendering)
			}
			if p.Kernel != "" {
				kernels++
				if !within(p.Kernel, p.Rendering) {
					t.Errorf("%s: kernel %q lies outside rendering %q", tc.name, p.Kernel, p.Rendering)
				}
			}
		}
	}
	if kernels == 0 {
		t.Fatal("no plan outlined a kernel; the check shows nothing")
	}
}
