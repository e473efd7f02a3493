// Sparse reproduces the paper's flagship scenario (§2.3, Figures 4-6): the
// performance bottleneck of the NAS CG benchmark — a CSR sparse matrix-
// vector multiplication with memory-dependent loop bounds and indirect
// accesses that defeat polyhedral tools — is detected by the SPMV idiom,
// replaced with a cuSPARSE-style library call, executed, verified against
// the sequential original, and timed under the paper's three platform
// models.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/idiomatic"
)

// The paper's Figure 4 kernel, embedded in a small driver.
const source = `
void spmv(int m, double* a, int* rowstr, int* colidx, double* z, double* r) {
    for (int j = 0; j < m; j++) {
        double d = 0.0;
        for (int k = rowstr[j]; k < rowstr[j+1]; k++) {
            d = d + a[k] * z[colidx[k]];
        }
        r[j] = d;
    }
}

double solve(int m, double* a, int* rowstr, int* colidx, double* z, double* r, int iters) {
    for (int it = 0; it < iters; it++) {
        spmv(m, a, rowstr, colidx, z, r);
    }
    return r[0];
}`

const rows, perRow, iters = 512, 8, 20

func inputs() []idiomatic.Value {
	rng := rand.New(rand.NewSource(42))
	nnz := rows * perRow
	a := idiomatic.NewBuffer("a", nnz*8)
	rowstr := idiomatic.NewBuffer("rowstr", (rows+1)*4)
	colidx := idiomatic.NewBuffer("colidx", nnz*4)
	z := idiomatic.NewBuffer("z", rows*8)
	r := idiomatic.NewBuffer("r", rows*8)
	for i := 0; i <= rows; i++ {
		rowstr.SetInt32(i, int32(i*perRow))
	}
	for i := 0; i < nnz; i++ {
		a.SetFloat64(i, rng.NormFloat64())
		colidx.SetInt32(i, rng.Int31n(rows))
	}
	for i := 0; i < rows; i++ {
		z.SetFloat64(i, rng.NormFloat64())
	}
	return []idiomatic.Value{
		idiomatic.Int(rows), idiomatic.Buf(a), idiomatic.Buf(rowstr),
		idiomatic.Buf(colidx), idiomatic.Buf(z), idiomatic.Buf(r),
		idiomatic.Int(iters),
	}
}

func main() {
	svc := idiomatic.Default() // blessed front door: one shared detection stream

	// Sequential reference.
	seq, err := svc.Compile(context.Background(), "cg", source)
	if err != nil {
		log.Fatal(err)
	}
	seqArgs := inputs()
	seqRun, err := seq.Run("solve", seqArgs...)
	if err != nil {
		log.Fatal(err)
	}

	// Detect and transform a second copy.
	acc, _ := svc.Compile(context.Background(), "cg", source)
	det, err := acc.Detect()
	if err != nil {
		log.Fatal(err)
	}
	for _, inst := range det.Instances {
		fmt.Printf("detected %s (%s) in %s\n", inst.Idiom, inst.Class, inst.Function)
	}
	calls, err := svc.Accelerate(context.Background(), acc, det)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range calls {
		fmt.Printf("generated call: %s (unsound static aliasing check: %v)\n",
			c.Rendering, c.Unsound)
	}

	accArgs := inputs()
	accRun, err := acc.Run("solve", accArgs...)
	if err != nil {
		log.Fatal(err)
	}
	if seqRun.Return.String() != accRun.Return.String() {
		log.Fatalf("results diverge: %s vs %s", seqRun.Return, accRun.Return)
	}
	fmt.Printf("\nresults identical (%s) across %d API calls\n", accRun.Return, accRun.Calls)

	seqTime := seqRun.SequentialSeconds()
	fmt.Printf("\nmodelled sequential time: %.3f ms\n", seqTime*1000)
	for _, dev := range []idiomatic.Device{idiomatic.CPU, idiomatic.IGPU, idiomatic.GPU} {
		if best, ok := accRun.EstimateBest(dev); ok {
			fmt.Printf("%-5s best API %-9s %8.3f ms  speedup %.2fx\n",
				dev, best.API, best.Seconds*1000, seqTime/best.Seconds)
		}
	}
}
