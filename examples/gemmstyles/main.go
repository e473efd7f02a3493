// Gemmstyles reproduces the paper's Figure 8 and §4.3: two syntactically
// distinct C implementations of general matrix multiplication — a strided,
// alpha/beta-generalized BLAS form and a textbook triple loop accumulating
// into memory — are both discovered by the same GEMM idiom, because IDL
// matches on SSA structure rather than syntax. Both are then replaced by
// library calls and verified.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/idiomatic"
)

const source = `
void gemm_blas_style(int m, int n, int k, float* A, int lda, float* B, int ldb,
                     float* C, int ldc, float alpha, float beta) {
    for (int mm = 0; mm < m; mm++) {
        for (int nn = 0; nn < n; nn++) {
            float c = 0.0f;
            for (int i = 0; i < k; i++) {
                float a = A[mm + i * lda];
                float b = B[nn + i * ldb];
                c = c + a * b;
            }
            C[mm + nn * ldc] = C[mm + nn * ldc] * beta + alpha * c;
        }
    }
}

void gemm_textbook(float M1[16][16], float M2[16][16], float M3[16][16]) {
    for (int i = 0; i < 16; i++) {
        for (int j = 0; j < 16; j++) {
            M3[i][j] = 0.0f;
            for (int k = 0; k < 16; k++) {
                M3[i][j] += M1[i][k] * M2[k][j];
            }
        }
    }
}

float both(int m, float* A, float* B, float* C, float alpha, float beta,
           float* M1, float* M2, float* M3) {
    gemm_blas_style(m, m, m, A, m, B, m, C, m, alpha, beta);
    gemm_textbook(M1, M2, M3);
    return C[0] + M3[0];
}`

func f32(name string, n int, rng *rand.Rand) *idiomatic.Buffer {
	b := idiomatic.NewBuffer(name, n*4)
	for i := 0; i < n; i++ {
		b.SetFloat32(i, float32(rng.NormFloat64()))
	}
	return b
}

func args() []idiomatic.Value {
	rng := rand.New(rand.NewSource(8))
	const m = 16
	return []idiomatic.Value{
		idiomatic.Int(m),
		idiomatic.Buf(f32("A", m*m, rng)), idiomatic.Buf(f32("B", m*m, rng)),
		idiomatic.Buf(f32("C", m*m, rng)),
		idiomatic.Float(1.5), idiomatic.Float(0.5),
		idiomatic.Buf(f32("M1", m*m, rng)), idiomatic.Buf(f32("M2", m*m, rng)),
		idiomatic.Buf(f32("M3", m*m, rng)),
	}
}

func main() {
	svc := idiomatic.Default() // blessed front door: one shared compile→detect pipeline
	seq, err := svc.Compile(context.Background(), "gemms", source)
	if err != nil {
		log.Fatal(err)
	}
	seqRun, err := seq.Run("both", args()...)
	if err != nil {
		log.Fatal(err)
	}

	acc, _ := svc.Compile(context.Background(), "gemms", source)
	det, err := acc.Detect()
	if err != nil {
		log.Fatal(err)
	}
	gemms := 0
	for _, inst := range det.Instances {
		fmt.Printf("detected %s in %s\n", inst.Idiom, inst.Function)
		if inst.Idiom == "GEMM" {
			gemms++
		}
	}
	if gemms != 2 {
		log.Fatalf("expected both GEMM styles to match, got %d", gemms)
	}
	fmt.Println("\nboth syntactic styles matched the same GEMM idiom (paper §4.3)")

	if _, err := svc.Accelerate(context.Background(), acc, det); err != nil {
		log.Fatal(err)
	}
	accRun, err := acc.Run("both", args()...)
	if err != nil {
		log.Fatal(err)
	}
	if seqRun.Return.String() != accRun.Return.String() {
		log.Fatalf("results diverge: %s vs %s", seqRun.Return, accRun.Return)
	}
	fmt.Printf("library-call results identical: %s\n", accRun.Return)
}
