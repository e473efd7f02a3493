// Package idioms contains the IDL idiom library of the paper: the reusable
// building blocks (SESE, For, ForNest, vector and matrix accesses, dot
// product loops, induction variables, kernel functions) and the five
// top-level computational idioms (GEMM, SPMV, Histogram, Stencil, Reduction)
// plus the Figure 2 FactorizationOpportunity demo.
//
// The paper reports that the complete idiom set is ≈500 lines of IDL; the
// library below is in the same ballpark. The building-block specifications
// are not printed in the paper, so they are authored here against the same
// published atomic vocabulary (Figure 7), with one documented extension: the
// "all operands of {v} come from {list} below {w}" atomic expressing
// well-behaved kernel functions (KernelFunctionSource below; the atomic is
// documented in package idl).
package idioms

// SESESource is the paper's Figure 9 single-entry single-exit region.
const SESESource = `
Constraint SESE
( {precursor} is branch instruction and
  {precursor} has control flow to {begin} and
  {end} is branch instruction and
  {end} has control flow to {successor} and
  {begin} control flow dominates {end} and
  {end} control flow post dominates {begin} and
  {precursor} strictly control flow dominates {begin} and
  {successor} strictly control flow post dominates {end} and
  all control flow from {begin} to {precursor} passes through {end} and
  all control flow from {successor} to {end} passes through {begin})
End
`

// ForSource matches a canonical counted loop:
//
//	header: {iterator} = phi [{iter_begin}, {precursor}], [{increment}, {backedge}]
//	        {comparison} = icmp {iterator}, {iter_end}
//	        {guard}: br {comparison}, {begin}, {successor}
//	body:   ... {increment} = add {iterator}, step ... br {backedge target}
const ForSource = `
Constraint For
( {iterator} is phi instruction and
  {iterator} is integer and
  {iter_begin} reaches phi node {iterator} from {precursor} and
  {increment} reaches phi node {iterator} from {backedge} and
  {precursor} is not the same as {backedge} and
  {increment} is add instruction and
  {iterator} is first argument of {increment} and
  {comparison} is icmp instruction and
  {iterator} is first argument of {comparison} and
  {iter_end} is second argument of {comparison} and
  {guard} is branch instruction and
  {comparison} is first argument of {guard} and
  {guard} has control flow to {begin} and
  {guard} has control flow to {successor} and
  {precursor} strictly control flow dominates {guard} and
  {begin} is not the same as {successor} and
  {begin} control flow dominates {increment} and
  {successor} does not control flow dominates {increment} and
  {guard} strictly control flow dominates {begin} and
  {successor} strictly control flow post dominates {guard})
End
`

// ForNestSource nests N For loops; exposes iterator[i], loop[i].* and the
// outermost body {begin}.
const ForNestSource = `
Constraint ForNest
( inherits For at {loop[0]} and
  ( ( inherits For at {loop[i+1]} and
      {loop[i].begin} control flow dominates {loop[i+1].guard} and
      {loop[i+1].successor} control flow dominates {loop[i].increment} )
    for all i = 0..N-2 ) and
  ( ( {iterator[i]} is the same as {loop[i].iterator} ) for all i = 0..N-1 ) and
  {begin} is the same as {loop[0].begin})
End
`

// IterMatchSource: {value} is {iterator} itself or its sign extension (the
// frontend widens i32 induction variables to i64 at address computations).
const IterMatchSource = `
Constraint IterMatch
( {value} is the same as {iterator} or
  ( {value} is sext instruction and
    {iterator} is first argument of {value} ) )
End
`

// MatrixIndexSource decomposes a flattened 2D index {index} = row*stride+col
// (any operand order, transposed assignments allowed, per the paper:
// "allowing strides, transposed matrices etc").
const MatrixIndexSource = `
Constraint MatrixIndex
( {index} is add instruction and
  ( ( {plain} is first argument of {index} and
      {product} is second argument of {index} ) or
    ( {plain} is second argument of {index} and
      {product} is first argument of {index} ) ) and
  {product} is mul instruction and
  ( ( {scaled} is first argument of {product} and
      {stride} is second argument of {product} ) or
    ( {scaled} is second argument of {product} and
      {stride} is first argument of {product} ) ) and
  {stride} is a compile time value and
  ( ( inherits IterMatch with {plain} as {value} and {col} as {iterator} and
      inherits IterMatch with {scaled} as {value} and {row} as {iterator} ) or
    ( inherits IterMatch with {plain} as {value} and {row} as {iterator} and
      inherits IterMatch with {scaled} as {value} and {col} as {iterator} ) ) )
End
`

// MatrixReadSource is a load whose address is a strided 2D access over two
// loop iterators {col} and {row} inside the region starting at {begin}.
const MatrixReadSource = `
Constraint MatrixRead
( {value} is load instruction and
  {address} is first argument of {value} and
  {address} is gep instruction and
  {base_pointer} is first argument of {address} and
  {base_pointer} is an argument and
  {gep_index} is second argument of {address} and
  ( {index} is the same as {gep_index} or
    ( {gep_index} is sext instruction and
      {index} is first argument of {gep_index} ) ) and
  inherits MatrixIndex and
  {begin} control flow dominates {value} )
End
`

// MatrixStoreSource is the store counterpart of MatrixRead.
const MatrixStoreSource = `
Constraint MatrixStore
( {store} is store instruction and
  {value} is first argument of {store} and
  {address} is second argument of {store} and
  {address} is gep instruction and
  {base_pointer} is first argument of {address} and
  {base_pointer} is an argument and
  {gep_index} is second argument of {address} and
  ( {index} is the same as {gep_index} or
    ( {gep_index} is sext instruction and
      {index} is first argument of {gep_index} ) ) and
  inherits MatrixIndex and
  {begin} control flow dominates {store} )
End
`

// VectorReadSource is a load at a single index {idx} (directly or through a
// sign extension) inside the region at {begin}.
const VectorReadSource = `
Constraint VectorRead
( {value} is load instruction and
  {address} is first argument of {value} and
  {address} is gep instruction and
  {base_pointer} is first argument of {address} and
  {gep_index} is second argument of {address} and
  ( {gep_index} is the same as {idx} or
    ( {gep_index} is sext instruction and
      {idx} is first argument of {gep_index} ) ) and
  {begin} control flow dominates {value} )
End
`

// VectorStoreSource is the store counterpart of VectorRead.
const VectorStoreSource = `
Constraint VectorStore
( {store} is store instruction and
  {value} is first argument of {store} and
  {address} is second argument of {store} and
  {address} is gep instruction and
  {base_pointer} is first argument of {address} and
  {gep_index} is second argument of {address} and
  ( {gep_index} is the same as {idx} or
    ( {gep_index} is sext instruction and
      {idx} is first argument of {gep_index} ) ) and
  {begin} control flow dominates {store} )
End
`

// ReadRangeSource matches loop bounds read from an index array:
// {range_begin} = base[{idx}], {range_end} = base[{idx}+1] (CSR row ranges).
const ReadRangeSource = `
Constraint ReadRange
( {range_begin} is load instruction and
  {begin_addr} is first argument of {range_begin} and
  {begin_addr} is gep instruction and
  {base_pointer} is first argument of {begin_addr} and
  {begin_index} is second argument of {begin_addr} and
  ( {begin_index} is the same as {idx} or
    ( {begin_index} is sext instruction and
      {idx} is first argument of {begin_index} ) ) and
  {range_end} is load instruction and
  {end_addr} is first argument of {range_end} and
  {end_addr} is gep instruction and
  {base_pointer} is first argument of {end_addr} and
  {end_index} is second argument of {end_addr} and
  ( {end_plus} is the same as {end_index} or
    ( {end_index} is sext instruction and
      {end_plus} is first argument of {end_index} ) ) and
  {end_plus} is add instruction and
  {idx} is first argument of {end_plus} )
End
`

// AccUseSource: {use} consumes the accumulator {acc}, possibly scaled by a
// constant factor (the alpha of a generalized matrix multiplication).
const AccUseSource = `
Constraint AccUse
( {use} is the same as {acc} or
  ( {use} is fmul instruction and
    ( {acc} is first argument of {use} or
      {acc} is second argument of {use} ) ) )
End
`

// DotProductLoopSource is the computation core shared by GEMM and SPMV: a
// loop multiplying {src1} and {src2} and accumulating into a scalar carried
// by a phi (form A) or directly into memory at {update_address} (form B).
// Form A's epilogue allows the generalized alpha/beta linear combination.
const DotProductLoopSource = `
Constraint DotProductLoop
( {product} is fmul instruction and
  ( ( {src1} is first argument of {product} and
      {src2} is second argument of {product} ) or
    ( {src2} is first argument of {product} and
      {src1} is second argument of {product} ) ) and
  {sum} is fadd instruction and
  ( {product} is first argument of {sum} or
    {product} is second argument of {sum} ) and
  {loop.begin} control flow dominates {product} and
  {store} is store instruction and
  {update_address} is second argument of {store} and
  {stored} is first argument of {store} and
  ( ( {acc} is phi instruction and
      {sum} reaches phi node {acc} from {loop.backedge} and
      ( {acc} is first argument of {sum} or
        {acc} is second argument of {sum} ) and
      {acc_init} reaches phi node {acc} from {loop.precursor} and
      {loop.successor} control flow dominates {store} and
      ( {stored} is the same as {acc} or
        inherits AccUse with {stored} as {use} or
        ( {stored} is fadd instruction and
          ( {epi} is first argument of {stored} or
            {epi} is second argument of {stored} ) and
          inherits AccUse with {epi} as {use} ) ) ) or
    ( {acc} is load instruction and
      {update_address} is first argument of {acc} and
      ( {acc} is first argument of {sum} or
        {acc} is second argument of {sum} ) and
      {stored} is the same as {sum} and
      {loop.begin} control flow dominates {store} ) ) )
End
`

// GEMMSource is the paper's Figure 10 generalized matrix multiplication.
const GEMMSource = `
Constraint GEMM
( inherits ForNest(N=3) and
  inherits MatrixStore
    with {iterator[0]} as {col}
    and {iterator[1]} as {row}
    and {begin} as {begin} at {output} and
  inherits MatrixRead
    with {iterator[0]} as {col}
    and {iterator[2]} as {row}
    and {begin} as {begin} at {input1} and
  inherits MatrixRead
    with {iterator[1]} as {col}
    and {iterator[2]} as {row}
    and {begin} as {begin} at {input2} and
  inherits DotProductLoop
    with {loop[2]} as {loop}
    and {input1.value} as {src1}
    and {input2.value} as {src2}
    and {output.address} as {update_address})
End
`

// SPMVSource is the paper's Figure 12 sparse matrix-vector multiplication in
// CSR form: the inner iteration space is read from an array (ReadRange) and
// one of the dot product operands is accessed indirectly.
const SPMVSource = `
Constraint SPMV
( inherits For and
  inherits VectorStore
    with {iterator} as {idx}
    and {begin} as {begin} at {output} and
  inherits ReadRange
    with {iterator} as {idx}
    and {inner.iter_begin} as {range_begin}
    and {inner.iter_end} as {range_end} and
  inherits For at {inner} and
  inherits VectorRead
    with {inner.iterator} as {idx}
    and {begin} as {begin} at {idx_read} and
  inherits VectorRead
    with {idx_read.value} as {idx}
    and {begin} as {begin} at {indir_read} and
  inherits VectorRead
    with {inner.iterator} as {idx}
    and {begin} as {begin} at {seq_read} and
  inherits DotProductLoop
    with {inner} as {loop}
    and {indir_read.value} as {src1}
    and {seq_read.value} as {src2}
    and {output.address} as {update_address})
End
`

// KernelFunctionSource expresses a well-behaved kernel: {output} is computed
// inside the region at {outer} purely from the {input}/{extra} values,
// constants and loop-invariant values — no loads, stores or calls.
const KernelFunctionSource = `
Constraint KernelFunction
( {output} is an instruction and
  {outer} control flow dominates {output} and
  all operands of {output} come from {input, extra} below {outer} )
End
`

// InductionVarSource is a loop-carried scalar: a phi distinct from the loop
// iterator, updated on every iteration.
const InductionVarSource = `
Constraint InductionVar
( {old_ind} is phi instruction and
  {ind_init} reaches phi node {old_ind} from {precursor} and
  {new_ind} reaches phi node {old_ind} from {backedge} and
  {new_ind} is an instruction )
End
`

// ReductionSource is the paper's Figure 14 generalized scalar reduction,
// with one addition: the loop body must be store-free ("no store instruction
// below {begin}"), so prefix scans and conditional queue pushes — whose
// intermediate values escape to memory every iteration — are rejected.
// Replacing such loops with a pure reduction API call would be unsound.
const ReductionSource = `
Constraint Reduction
( inherits For and
  no store instruction below {begin} and
  inherits InductionVar
    with {old_value} as {old_ind}
    and {new_value} as {new_ind} and
  {old_value} is not the same as {iterator} and
  collect i 1
  ( inherits VectorRead
      with {iterator} as {idx}
      and {read_value[i]} as {value}
      and {begin} as {begin} at {read[i]} ) and
  inherits KernelFunction
    with {new_value} as {output}
    and {read_value} as {input}
    and {old_value} as {extra}
    and {begin} as {outer})
End
`

// HistogramSource is the paper's Figure 11 generalized histogram: a
// read-modify-write to a bin array whose index is computed by a well-behaved
// kernel from data read at the loop iterator.
const HistogramSource = `
Constraint Histogram
( inherits For and
  {store} is store instruction and
  {stored_value} is first argument of {store} and
  {bin_address} is second argument of {store} and
  {bin_address} is gep instruction and
  {bin_base} is first argument of {bin_address} and
  {bin_index} is second argument of {bin_address} and
  ( {index_value} is the same as {bin_index} or
    ( {bin_index} is sext instruction and
      {index_value} is first argument of {bin_index} ) ) and
  {index_value} is not the same as {iterator} and
  {old_value} is load instruction and
  ( {bin_address} is first argument of {old_value} or
    ( {old_address} is first argument of {old_value} and
      {old_address} is gep instruction and
      {bin_base} is first argument of {old_address} and
      {bin_index} is second argument of {old_address} ) ) and
  {old_value} has data flow to {stored_value} and
  {begin} control flow dominates {store} and
  collect i 1
  ( inherits VectorRead
      with {iterator} as {idx}
      and {read_value[i]} as {value}
      and {begin} as {begin} at {read[i]} ) and
  inherits KernelFunction
    with {stored_value} as {output}
    and {read_value} as {input}
    and {old_value} as {extra}
    and {begin} as {outer} and
  inherits KernelFunction
    with {index_value} as {output}
    and {read_value} as {input}
    and {read_value} as {extra}
    and {begin} as {outer} at {indexkernel})
End
`

// OffsetCoreSource: {core} is {iterator} or {iterator} ± constant.
const OffsetCoreSource = `
Constraint OffsetCore
( {core} is the same as {iterator} or
  ( ( {core} is add instruction or
      {core} is sub instruction ) and
    {iterator} is first argument of {core} and
    {offset} is second argument of {core} and
    {offset} is a constant ) )
End
`

// OffsetIndexSource: {value} is an OffsetCore or its sign extension.
const OffsetIndexSource = `
Constraint OffsetIndex
( ( inherits OffsetCore with {value} as {core} ) or
  ( {value} is sext instruction and
    {inner_core} is first argument of {value} and
    inherits OffsetCore with {inner_core} as {core} ) )
End
`

// Stencil1Source is a one-dimensional stencil: a store at the loop iterator
// whose value is a pure kernel of at least two constant-offset reads of a
// different array (paper Figure 13 specialized to one dimension).
const Stencil1Source = `
Constraint Stencil1
( inherits For and
  {store} is store instruction and
  {stored_value} is first argument of {store} and
  {out_address} is second argument of {store} and
  {out_address} is gep instruction and
  {out_base} is first argument of {out_address} and
  {out_index} is second argument of {out_address} and
  inherits OffsetIndex
    with {out_index} as {value}
    and {iterator} as {iterator} at {outoff} and
  {begin} control flow dominates {store} and
  collect i 2
  ( {read_value[i]} is load instruction and
    {read[i].address} is first argument of {read_value[i]} and
    {read[i].address} is gep instruction and
    {in_base} is first argument of {read[i].address} and
    {read[i].index} is second argument of {read[i].address} and
    inherits OffsetIndex
      with {read[i].index} as {value}
      and {iterator} as {iterator} at {read[i].off} and
    {begin} control flow dominates {read_value[i]} ) and
  {out_base} is pointer and
  {in_base} is pointer and
  {out_base} is not the same as {in_base} and
  inherits KernelFunction
    with {stored_value} as {output}
    and {read_value} as {input}
    and {read_value} as {extra}
    and {begin} as {outer})
End
`

// Stencil2IndexSource decomposes a flattened 2D stencil index with constant
// offsets on both iterators.
const Stencil2IndexSource = `
Constraint Stencil2Index
( {index} is add instruction and
  ( ( {plain} is first argument of {index} and
      {product} is second argument of {index} ) or
    ( {plain} is second argument of {index} and
      {product} is first argument of {index} ) ) and
  {product} is mul instruction and
  ( ( {scaled} is first argument of {product} and
      {stride} is second argument of {product} ) or
    ( {scaled} is second argument of {product} and
      {stride} is first argument of {product} ) ) and
  {stride} is a compile time value and
  inherits OffsetIndex
    with {scaled} as {value}
    and {it_row} as {iterator} at {rowoff} and
  inherits OffsetIndex
    with {plain} as {value}
    and {it_col} as {iterator} at {coloff} )
End
`

// Stencil2Source is a two-dimensional stencil over a ForNest(N=2).
const Stencil2Source = `
Constraint Stencil2
( inherits ForNest(N=2) and
  {store} is store instruction and
  {stored_value} is first argument of {store} and
  {out_address} is second argument of {store} and
  {out_address} is gep instruction and
  {out_base} is first argument of {out_address} and
  {out_index} is second argument of {out_address} and
  ( {out_flat} is the same as {out_index} or
    ( {out_index} is sext instruction and
      {out_flat} is first argument of {out_index} ) ) and
  inherits Stencil2Index
    with {out_flat} as {index}
    and {iterator[0]} as {it_row}
    and {iterator[1]} as {it_col} at {outidx} and
  {begin} control flow dominates {store} and
  collect i 2
  ( {read_value[i]} is load instruction and
    {read[i].address} is first argument of {read_value[i]} and
    {read[i].address} is gep instruction and
    {in_base} is first argument of {read[i].address} and
    {read[i].index} is second argument of {read[i].address} and
    ( {read[i].flat} is the same as {read[i].index} or
      ( {read[i].index} is sext instruction and
        {read[i].flat} is first argument of {read[i].index} ) ) and
    inherits Stencil2Index
      with {read[i].flat} as {index}
      and {iterator[0]} as {it_row}
      and {iterator[1]} as {it_col} at {read[i].idx} and
    {begin} control flow dominates {read_value[i]} ) and
  {out_base} is pointer and
  {in_base} is pointer and
  {out_base} is not the same as {in_base} and
  inherits KernelFunction
    with {stored_value} as {output}
    and {read_value} as {input}
    and {read_value} as {extra}
    and {begin} as {outer})
End
`

// Stencil3IndexSource decomposes ((i*d2)+j)*d3+k flattened 3D indices with
// constant offsets on every iterator.
const Stencil3IndexSource = `
Constraint Stencil3Index
( {index} is add instruction and
  ( ( {plain} is first argument of {index} and
      {product} is second argument of {index} ) or
    ( {plain} is second argument of {index} and
      {product} is first argument of {index} ) ) and
  {product} is mul instruction and
  ( ( {level2} is first argument of {product} and
      {stride2} is second argument of {product} ) or
    ( {level2} is second argument of {product} and
      {stride2} is first argument of {product} ) ) and
  {stride2} is a compile time value and
  inherits Stencil2Index
    with {level2} as {index}
    and {it_plane} as {it_row}
    and {it_row2} as {it_col} at {lvl} and
  inherits OffsetIndex
    with {plain} as {value}
    and {it_col} as {iterator} at {coloff} )
End
`

// Stencil3Source is a three-dimensional stencil over a ForNest(N=3) with a
// flattened linear index.
const Stencil3Source = `
Constraint Stencil3
( inherits ForNest(N=3) and
  {store} is store instruction and
  {stored_value} is first argument of {store} and
  {out_address} is second argument of {store} and
  {out_address} is gep instruction and
  {out_base} is first argument of {out_address} and
  {out_index} is second argument of {out_address} and
  ( {out_flat} is the same as {out_index} or
    ( {out_index} is sext instruction and
      {out_flat} is first argument of {out_index} ) ) and
  inherits Stencil3Index
    with {out_flat} as {index}
    and {iterator[0]} as {it_plane}
    and {iterator[1]} as {it_row2}
    and {iterator[2]} as {it_col} at {outidx} and
  {begin} control flow dominates {store} and
  collect i 2
  ( {read_value[i]} is load instruction and
    {read[i].address} is first argument of {read_value[i]} and
    {read[i].address} is gep instruction and
    {in_base} is first argument of {read[i].address} and
    {read[i].index} is second argument of {read[i].address} and
    ( {read[i].flat} is the same as {read[i].index} or
      ( {read[i].index} is sext instruction and
        {read[i].flat} is first argument of {read[i].index} ) ) and
    inherits Stencil3Index
      with {read[i].flat} as {index}
      and {iterator[0]} as {it_plane}
      and {iterator[1]} as {it_row2}
      and {iterator[2]} as {it_col} at {read[i].idx} and
    {begin} control flow dominates {read_value[i]} ) and
  {out_base} is pointer and
  {in_base} is pointer and
  {out_base} is not the same as {in_base} and
  inherits KernelFunction
    with {stored_value} as {output}
    and {read_value} as {input}
    and {read_value} as {extra}
    and {begin} as {outer})
End
`

// MapSource is the paper's named future-work idiom ("future work will
// examine outer loop parallelism as an idiom to exploit"): a data-parallel
// loop storing a pure function of same-index reads at every iteration.
// Reads and the store may share a base (out[i] += f(in[i]) is independent
// across iterations); loop-carried scalar state is excluded by requiring
// the stored value's kernel to draw only on the collected reads.
const MapSource = `
Constraint Map
( inherits For and
  inherits VectorStore
    with {iterator} as {idx}
    and {begin} as {begin} at {out} and
  collect i 1
  ( inherits VectorRead
      with {iterator} as {idx}
      and {read_value[i]} as {value}
      and {begin} as {begin} at {read[i]} ) and
  inherits KernelFunction
    with {out.value} as {output}
    and {read_value} as {input}
    and {read_value} as {extra}
    and {begin} as {outer})
End
`

// FactorizationSource is the paper's Figure 2 demonstration idiom.
const FactorizationSource = `
Constraint FactorizationOpportunity
( {sum} is add instruction and
  {left_addend} is first argument of {sum} and
  {left_addend} is mul instruction and
  {right_addend} is second argument of {sum} and
  {right_addend} is mul instruction and
  ( {factor} is first argument of {left_addend} or
    {factor} is second argument of {left_addend}) and
  ( {factor} is first argument of {right_addend} or
    {factor} is second argument of {right_addend}))
End
`

// LibrarySource is the complete idiom library source.
var LibrarySource = SESESource + ForSource + ForNestSource + IterMatchSource +
	MatrixIndexSource + MatrixReadSource + MatrixStoreSource +
	VectorReadSource + VectorStoreSource + ReadRangeSource + AccUseSource +
	DotProductLoopSource + GEMMSource + SPMVSource + KernelFunctionSource +
	InductionVarSource + ReductionSource + HistogramSource +
	OffsetCoreSource + OffsetIndexSource + Stencil1Source +
	Stencil2IndexSource + Stencil2Source + Stencil3IndexSource +
	Stencil3Source + MapSource + FactorizationSource
