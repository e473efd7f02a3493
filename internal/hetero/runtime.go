// Package hetero is the heterogeneous execution substrate of the
// reproduction. It provides:
//
//   - runtime implementations for every API entry point the transformation
//     phase emits (gemm, spmv, reduction, histogram, stencil1/2/3), executing
//     outlined kernels through the interpreter so results are bit-identical
//     to the sequential original;
//   - analytic device models for the paper's three platforms (AMD A10-7850K
//     CPU, Radeon R7 iGPU, GTX Titan X external GPU) — the documented
//     substitution for the hardware we do not have;
//   - per-API efficiency profiles reproducing the relative standings of
//     MKL/cuBLAS/clBLAS/CLBlast/cuSPARSE/clSPARSE/libSPMV/Halide/Lift in the
//     paper's Table 3.
package hetero

import (
	"fmt"
	"strings"

	"repro/internal/interp"
	"repro/internal/ir"
)

// CallRecord captures the dynamic cost of one API call for the device
// timing model.
type CallRecord struct {
	Extern  string
	Backend string // e.g. "cusparse", "mkl", "lift"
	API     string // gemm | spmv | reduction | histogram | stencil1/2/3
	Counts  interp.Counts
	// Buffers are the distinct memory objects the call touched; their sizes
	// drive the transfer cost model.
	Buffers []*interp.Buffer
	// KernelHasBranch marks DSL calls whose outlined kernel contains
	// control flow (conditional stencils, clamped updates); APIs with
	// NeedsStraightLineKernel cannot take these.
	KernelHasBranch bool
}

// Ledger accumulates API call records during a transformed-program run.
type Ledger struct {
	Calls []CallRecord
}

// SplitExtern decomposes "backend.api#kernel".
func SplitExtern(name string) (backend, api, kernel string) {
	if i := strings.Index(name, "#"); i >= 0 {
		kernel = name[i+1:]
		name = name[:i]
	}
	if i := strings.Index(name, "."); i >= 0 {
		backend = name[:i]
		api = name[i+1:]
	} else {
		api = name
	}
	return backend, api, kernel
}

// Bind registers implementations for every external symbol declared in the
// machine's module. Call records are appended to the ledger (which may be
// nil when only correctness matters).
func Bind(m *interp.Machine, ledger *Ledger) error {
	for _, g := range m.Mod.Externals {
		g := g
		backend, api, kernel := SplitExtern(g.Ident)
		var kernelFn *ir.Function
		if kernel != "" {
			kernelFn = m.Mod.FunctionByName(kernel)
			if kernelFn == nil {
				return fmt.Errorf("hetero: extern %s references missing kernel %s", g.Ident, kernel)
			}
		}
		impl, err := implFor(api, kernelFn)
		if err != nil {
			return fmt.Errorf("hetero: %s: %w", g.Ident, err)
		}
		kernelBranches := KernelHasBranches(kernelFn)
		m.Externs[g.Ident] = func(mach *interp.Machine, args []interp.Value) (interp.Value, error) {
			before := mach.Counts
			ret, err := impl(mach, args)
			if err != nil {
				return ret, err
			}
			if ledger != nil {
				delta := mach.Counts
				deltaSub(&delta, before)
				ledger.Calls = append(ledger.Calls, CallRecord{
					Extern:          g.Ident,
					Backend:         backend,
					API:             api,
					Counts:          delta,
					Buffers:         distinctBuffers(args),
					KernelHasBranch: kernelBranches,
				})
			}
			return ret, nil
		}
	}
	return nil
}

// KernelHasBranches reports whether an outlined kernel function contains
// control flow — the property that disqualifies NeedsStraightLineKernel
// APIs (the paper's Halide failures on conditional stencils). A nil kernel
// (library calls) is branch-free.
func KernelHasBranches(fn *ir.Function) bool {
	if fn == nil {
		return false
	}
	for _, blk := range fn.Blocks {
		if t := blk.Terminator(); t != nil && len(t.Succs) > 1 {
			return true
		}
	}
	return false
}

func deltaSub(c *interp.Counts, before interp.Counts) {
	c.Flops -= before.Flops
	c.MathOps -= before.MathOps
	c.IntOps -= before.IntOps
	c.Loads -= before.Loads
	c.Stores -= before.Stores
	c.LoadBytes -= before.LoadBytes
	c.StoreBytes -= before.StoreBytes
	c.Branches -= before.Branches
	c.Calls -= before.Calls
	c.Steps -= before.Steps
}

func distinctBuffers(args []interp.Value) []*interp.Buffer {
	var out []*interp.Buffer
	seen := map[*interp.Buffer]bool{}
	for _, a := range args {
		if a.IsPtr() {
			if b := a.Ptr().Buf; b != nil && !seen[b] {
				seen[b] = true
				out = append(out, b)
			}
		}
	}
	return out
}

type implFn func(*interp.Machine, []interp.Value) (interp.Value, error)

func implFor(api string, kernel *ir.Function) (implFn, error) {
	switch api {
	case "spmv":
		return implSPMV, nil
	case "gemm":
		return implGEMM, nil
	case "reduction":
		if kernel == nil {
			return nil, fmt.Errorf("reduction requires a kernel")
		}
		return implReduction(kernel), nil
	case "histogram", "stencil1", "map":
		if kernel == nil {
			return nil, fmt.Errorf("%s requires a kernel", api)
		}
		return implForEach(kernel, 1), nil
	case "stencil2":
		return implForEach(kernel, 2), nil
	case "stencil3":
		return implForEach(kernel, 3), nil
	}
	return nil, fmt.Errorf("unknown API %q", api)
}

// implSPMV executes the CSR sparse matrix-vector product, mirroring the
// paper's cusparseDcsrmv call (Figure 6): r = A·z with int32 row ranges and
// column indices and float64 values.
func implSPMV(m *interp.Machine, args []interp.Value) (interp.Value, error) {
	if len(args) != 6 {
		return interp.Value{}, fmt.Errorf("spmv expects 6 args, got %d", len(args))
	}
	rows := args[0].Int()
	a := args[1].Ptr().Buf
	rowstr := args[2].Ptr().Buf
	colidx := args[3].Ptr().Buf
	z := args[4].Ptr().Buf
	r := args[5].Ptr().Buf
	for j := int64(0); j < rows; j++ {
		d := 0.0
		lo := int64(rowstr.Int32At(int(j)))
		hi := int64(rowstr.Int32At(int(j + 1)))
		for k := lo; k < hi; k++ {
			d += a.Float64At(int(k)) * z.Float64At(int(colidx.Int32At(int(k))))
		}
		r.SetFloat64(int(j), d)
		m.Counts.Flops += 2 * (hi - lo)
		m.Counts.Loads += 2*(hi-lo) + 2
		m.Counts.LoadBytes += 12*(hi-lo) + 8
		m.Counts.Stores++
		m.Counts.StoreBytes += 8
		// Addressing and loop-control work equivalent to the replaced
		// region, so library and DSL call records are comparable.
		m.Counts.IntOps += 7*(hi-lo) + 8
		m.Counts.Branches += (hi - lo) + 2
	}
	return interp.Value{}, nil
}

// implGEMM executes the generalized matrix multiplication
// C = alpha·A·B + beta·C over strided, possibly transposed accesses.
// Argument layout (see transform.applyGEMM):
//
//	M, N, K, C, ldc, cScaledIsCol, A, lda, aScaledIsCol,
//	B, ldb, bScaledIsCol, alpha, beta, elemKind
func implGEMM(m *interp.Machine, args []interp.Value) (interp.Value, error) {
	if len(args) != 15 {
		return interp.Value{}, fmt.Errorf("gemm expects 15 args, got %d", len(args))
	}
	M, N, K := args[0].Int(), args[1].Int(), args[2].Int()
	c := args[3].Ptr().Buf
	ldc, cfl := args[4].Int(), args[5].Int() != 0
	a := args[6].Ptr().Buf
	lda, afl := args[7].Int(), args[8].Int() != 0
	bb := args[9].Ptr().Buf
	ldb, bfl := args[10].Int(), args[11].Int() != 0
	alpha, beta := args[12].Float(), args[13].Float()
	single := args[14].Int() == 0

	idx := func(col, row, ld int64, scaledIsCol bool) int {
		if scaledIsCol {
			return int(col*ld + row)
		}
		return int(col + row*ld)
	}
	for ci := int64(0); ci < M; ci++ {
		for ri := int64(0); ri < N; ri++ {
			if single {
				acc := float32(0)
				for k := int64(0); k < K; k++ {
					acc += a.Float32At(idx(ci, k, lda, afl)) * bb.Float32At(idx(ri, k, ldb, bfl))
				}
				off := idx(ci, ri, ldc, cfl)
				old := c.Float32At(off)
				c.SetFloat32(off, float32(beta)*old+float32(alpha)*acc)
			} else {
				acc := 0.0
				for k := int64(0); k < K; k++ {
					acc += a.Float64At(idx(ci, k, lda, afl)) * bb.Float64At(idx(ri, k, ldb, bfl))
				}
				off := idx(ci, ri, ldc, cfl)
				old := c.Float64At(off)
				c.SetFloat64(off, beta*old+alpha*acc)
			}
		}
	}
	elemSize := int64(8)
	if single {
		elemSize = 4
	}
	m.Counts.Flops += 2*M*N*K + 3*M*N
	m.Counts.Loads += 2*M*N*K + M*N
	// Blocked GEMM streams each matrix approximately once: DRAM traffic is
	// the operand footprint, not the 2MNK element touches (which hit cache).
	m.Counts.LoadBytes += (M*K + N*K + M*N) * elemSize
	m.Counts.Stores += M * N
	m.Counts.StoreBytes += M * N * elemSize
	// Addressing and loop-control work equivalent to the replaced region.
	m.Counts.IntOps += 10*M*N*K + 12*M*N
	m.Counts.Branches += M*N*K + 2*M*N
	return interp.Value{}, nil
}

// implReduction folds the outlined cell over [begin, end):
// acc = cell(i, acc, captured...).
func implReduction(kernel *ir.Function) implFn {
	return func(m *interp.Machine, args []interp.Value) (interp.Value, error) {
		if len(args) < 3 {
			return interp.Value{}, fmt.Errorf("reduction expects >=3 args")
		}
		begin, end, acc := args[0].Int(), args[1].Int(), args[2]
		invars := args[3:]
		for i := begin; i < end; i++ {
			callArgs := append([]interp.Value{interp.IntValue(i), acc}, invars...)
			v, err := m.Exec(kernel, callArgs...)
			if err != nil {
				return interp.Value{}, err
			}
			acc = v
		}
		return acc, nil
	}
}

// implForEach runs the outlined cell over a 1-, 2- or 3-deep rectangular
// iteration space: histogram bodies and stencils.
func implForEach(kernel *ir.Function, depth int) implFn {
	return func(m *interp.Machine, args []interp.Value) (interp.Value, error) {
		if len(args) < 2*depth {
			return interp.Value{}, fmt.Errorf("forEach depth %d expects >=%d args", depth, 2*depth)
		}
		bounds := make([][2]int64, depth)
		for d := 0; d < depth; d++ {
			bounds[d] = [2]int64{args[2*d].Int(), args[2*d+1].Int()}
		}
		invars := args[2*depth:]

		var run func(d int, iters []interp.Value) error
		run = func(d int, iters []interp.Value) error {
			if d == depth {
				callArgs := append(append([]interp.Value{}, iters...), invars...)
				_, err := m.Exec(kernel, callArgs...)
				return err
			}
			for i := bounds[d][0]; i < bounds[d][1]; i++ {
				if err := run(d+1, append(iters, interp.IntValue(i))); err != nil {
					return err
				}
			}
			return nil
		}
		return interp.Value{}, run(0, nil)
	}
}
