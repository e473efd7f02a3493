// Package transform implements the paper's code replacement phase: detected
// idiom instances are cut out of the IR and replaced with calls to
// heterogeneous API entry points.
//
// Library idioms (GEMM, SPMV) become closed-form calls carrying the matrix
// descriptors extracted from the constraint solution, exactly like the
// paper's Figure 6 cuSPARSE call. DSL idioms (Reduction, Histogram, Stencil)
// have their loop bodies outlined into fresh kernel functions — the analog
// of the paper's kernel extraction for Halide/Lift — whose name is embedded
// in the external symbol ("lift.reduction#kernel") so the runtime can
// execute them per element.
package transform

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/constraint"
	"repro/internal/detect"
	"repro/internal/idioms"
	"repro/internal/ir"
)

// APICall describes one applied transformation.
type APICall struct {
	// Extern is the external symbol called (backend-qualified, with the
	// outlined kernel name after '#' for DSL idioms).
	Extern string
	// Kernel is the outlined cell function, nil for library calls.
	Kernel *ir.Function
	// Call is the inserted call instruction.
	Call *ir.Instruction
	// Unsound marks transformations that static analysis cannot prove safe
	// (sparse aliasing, paper §6.3).
	Unsound bool
	// RuntimeChecks lists the non-overlap checks a real deployment would
	// insert (dense idioms, paper §6.3).
	RuntimeChecks []string
}

// FixedBackend is the paper's fixed backend mapping for the evaluated
// Figure 1 pipeline: the BLAS and sparse libraries for GEMM and SPMV, the
// Lift DSL for every other idiom. Profile-driven selection lives in hetero.
func FixedBackend(idiom string) string {
	switch idiom {
	case "GEMM":
		return "blas"
	case "SPMV":
		return "sparse"
	default:
		return "lift"
	}
}

// Apply rewrites fn in place, replacing the instance with a call to
// backend-qualified API entry points (backend example: "cusparse", "mkl",
// "lift", "halide"). It returns a description of the call. The replacement
// strategy is the idiom's declared transform scheme — for the built-in
// idioms and tenant pack idioms alike — so an idiom without one is
// rejected.
func Apply(mod *ir.Module, inst detect.Instance, backend string) (*APICall, error) {
	tr := &transformer{mod: mod, fn: inst.Function, sol: inst.Solution, backend: backend}
	tr.info = analysis.Analyze(tr.fn)

	out, err := tr.applyScheme(inst.Idiom)
	if err != nil {
		return nil, err
	}
	removeUnreachableBlocks(tr.fn)
	ir.EliminateDeadCode(tr.fn)
	if verr := ir.Verify(tr.fn); verr != nil {
		return nil, fmt.Errorf("transform: produced invalid IR: %w", verr)
	}
	return out, nil
}

type transformer struct {
	mod     *ir.Module
	fn      *ir.Function
	info    *analysis.Info
	sol     constraint.Solution
	backend string
}

// applyScheme translates an idiom by its declared scheme. The solution must
// bind the canonical loop variables the scheme expects (unprefixed For for
// loopbody1, loop[i].* for deeper nests — exactly what inheriting the
// library's For/ForNest yields). The API name embedded in the extern is the
// idiom's offload kind when declared, else its lowercased name.
func (tr *transformer) applyScheme(idm idioms.Idiom) (*APICall, error) {
	api := idm.Kind
	if api == "" {
		api = strings.ToLower(idm.Name)
	}
	switch idm.Scheme {
	case "gemm":
		return tr.applyGEMM()
	case "spmv":
		return tr.applySPMV()
	case "reduction":
		return tr.applyReduction()
	case "loopbody1":
		return tr.applyLoopBody(api, 1)
	case "loopbody2":
		return tr.applyLoopBody(api, 2)
	case "loopbody3":
		return tr.applyLoopBody(api, 3)
	}
	return nil, fmt.Errorf("transform: no translation scheme for %s", idm.Name)
}

func (tr *transformer) val(name string) (ir.Value, error) {
	v, ok := tr.sol[name]
	if !ok || v == constraint.Unconstrained {
		return nil, fmt.Errorf("transform: solution lacks %q", name)
	}
	return v, nil
}

func (tr *transformer) instr(name string) (*ir.Instruction, error) {
	v, err := tr.val(name)
	if err != nil {
		return nil, err
	}
	in, ok := v.(*ir.Instruction)
	if !ok {
		return nil, fmt.Errorf("transform: %q is not an instruction", name)
	}
	return in, nil
}

// loopParts fetches the canonical loop variables under an optional prefix
// ("" or "loop[0]" etc.).
type loopParts struct {
	iterator, guard, precursor, backedge *ir.Instruction
	iterBegin, iterEnd                   ir.Value
	successor                            *ir.Instruction
}

func (tr *transformer) loop(prefix string) (*loopParts, error) {
	name := func(s string) string {
		if prefix == "" {
			return s
		}
		return prefix + "." + s
	}
	lp := &loopParts{}
	var err error
	if lp.iterator, err = tr.instr(name("iterator")); err != nil {
		return nil, err
	}
	if lp.guard, err = tr.instr(name("guard")); err != nil {
		return nil, err
	}
	if lp.precursor, err = tr.instr(name("precursor")); err != nil {
		return nil, err
	}
	if lp.backedge, err = tr.instr(name("backedge")); err != nil {
		return nil, err
	}
	if lp.successor, err = tr.instr(name("successor")); err != nil {
		return nil, err
	}
	if lp.iterBegin, err = tr.val(name("iter_begin")); err != nil {
		return nil, err
	}
	if lp.iterEnd, err = tr.val(name("iter_end")); err != nil {
		return nil, err
	}
	return lp, nil
}

// replaceLoop splices a new block containing `build` output between the
// outer loop's precursor and its exit block. The loop body becomes
// unreachable and is cleaned up afterwards.
func (tr *transformer) replaceLoop(outer *loopParts, build func(b *ir.Builder) *ir.Instruction) (*ir.Instruction, error) {
	exitBlock := outer.successor.Block
	header := outer.iterator.Block

	apiBlock := tr.fn.NewBlock("api")
	b := ir.NewBuilder(tr.fn)
	b.SetBlock(apiBlock)
	call := build(b)
	b.Br(exitBlock)

	// Redirect the precursor edge from the loop header to the API block.
	redirected := false
	for i, s := range outer.precursor.Succs {
		if s == header {
			outer.precursor.Succs[i] = apiBlock
			redirected = true
		}
	}
	if !redirected {
		return nil, fmt.Errorf("transform: precursor does not branch to loop header")
	}
	// Exit-block phis gain no new predecessors: the header is gone, the API
	// block arrives instead. Rewrite any phi incoming from the header.
	for _, phi := range exitBlock.Phis() {
		for i, ib := range phi.Incoming {
			if ib == header {
				phi.Incoming[i] = apiBlock
			}
		}
	}
	return call, nil
}

// cloneInvariant materializes a copy of v at the builder position when v is
// an instruction chain over values that dominate the insertion point. Used
// for loop bounds like "m-1" computed inside inner loop headers.
func (tr *transformer) cloneInvariant(v ir.Value, at *ir.Instruction, b *ir.Builder) (ir.Value, error) {
	switch x := v.(type) {
	case *ir.Const, *ir.Argument:
		return v, nil
	case *ir.Instruction:
		if tr.info.StrictlyDominates(x, at) {
			return v, nil
		}
		switch x.Op {
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpSDiv, ir.OpSExt, ir.OpZExt, ir.OpTrunc:
			var ops []ir.Value
			for _, op := range x.Ops {
				c, err := tr.cloneInvariant(op, at, b)
				if err != nil {
					return nil, err
				}
				ops = append(ops, c)
			}
			clone := &ir.Instruction{Op: x.Op, Ty: x.Ty, Ops: ops, Ident: tr.fn.FreshName(x.Ident + ".inv")}
			b.Cur.Instrs = append(b.Cur.Instrs, clone)
			clone.Block = b.Cur
			return clone, nil
		}
		return nil, fmt.Errorf("transform: bound %%%s (op %s) is not invariant-clonable", x.Ident, x.Op)
	}
	return nil, fmt.Errorf("transform: cannot clone %v", v)
}

func elemKindArg(t *ir.Type) ir.Value {
	if t.Kind == ir.KindFloat {
		return ir.ConstInt(ir.Int32, 0)
	}
	return ir.ConstInt(ir.Int32, 1)
}

// matchesIter reports whether v is the iterator or its sign-extension.
func matchesIter(v ir.Value, iter *ir.Instruction) bool {
	if v == ir.Value(iter) {
		return true
	}
	if in, ok := v.(*ir.Instruction); ok && in.Op == ir.OpSExt && in.Ops[0] == ir.Value(iter) {
		return true
	}
	return false
}

func removeUnreachableBlocks(fn *ir.Function) {
	reachable := map[*ir.Block]bool{fn.Entry(): true}
	stack := []*ir.Block{fn.Entry()}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t := blk.Terminator(); t != nil {
			for _, s := range t.Succs {
				if !reachable[s] {
					reachable[s] = true
					stack = append(stack, s)
				}
			}
		}
	}
	var kept []*ir.Block
	for _, blk := range fn.Blocks {
		if reachable[blk] {
			kept = append(kept, blk)
		}
	}
	fn.Blocks = kept
	// Trim phi incomings from removed blocks.
	for _, blk := range fn.Blocks {
		for _, phi := range blk.Phis() {
			var ops []ir.Value
			var inc []*ir.Block
			for i, ib := range phi.Incoming {
				if reachable[ib] {
					ops = append(ops, phi.Ops[i])
					inc = append(inc, ib)
				}
			}
			phi.Ops, phi.Incoming = ops, inc
		}
	}
}

// replaceUsesOutside replaces every use of old with nv.
func replaceUses(fn *ir.Function, old, nv ir.Value) {
	for _, blk := range fn.Blocks {
		for _, in := range blk.Instrs {
			for i, op := range in.Ops {
				if op == old {
					in.Ops[i] = nv
				}
			}
		}
	}
}

// externName builds the backend-qualified symbol, embedding the kernel.
func (tr *transformer) externName(api, kernel string) string {
	name := tr.backend + "." + api
	if kernel != "" {
		name += "#" + kernel
	}
	return name
}

// kernelBaseName derives a readable outlined-kernel name.
func (tr *transformer) kernelBaseName(api string) string {
	base := tr.fn.Ident + "_" + api + "_kernel"
	name := base
	for i := 2; tr.mod.FunctionByName(name) != nil; i++ {
		name = fmt.Sprintf("%s%d", base, i)
	}
	return name
}

// Retarget repoints an applied call at a different backend: the extern
// symbol is re-qualified (API name and outlined-kernel suffix preserved)
// and the call rewritten to the new declaration. Serving layers use it when
// a post-outlining property — the kernel containing control flow — rules
// the provisionally selected backend out. The superseded declaration is
// dropped when nothing else references it.
func (a *APICall) Retarget(mod *ir.Module, backend string) {
	rest := a.Extern
	if i := strings.Index(rest, "."); i >= 0 {
		rest = rest[i+1:]
	}
	old, ok := a.Call.Ops[0].(*ir.GlobalRef)
	if !ok {
		return
	}
	a.Extern = backend + "." + rest
	g := mod.DeclareExternal(a.Extern, old.Ty)
	a.Call.Ops[0] = g

	used := false
	for _, fn := range mod.Functions {
		for _, blk := range fn.Blocks {
			for _, in := range blk.Instrs {
				for _, op := range in.Ops {
					if op == ir.Value(old) {
						used = true
					}
				}
			}
		}
	}
	if !used {
		kept := mod.Externals[:0]
		for _, e := range mod.Externals {
			if e != old {
				kept = append(kept, e)
			}
		}
		mod.Externals = kept
	}
}

// String renders the call like the paper's Figure 6. The rendering is
// allocated at its exact length, since plans keep it.
func (a *APICall) String() string {
	args := make([]string, len(a.Call.Ops)-1)
	for i, op := range a.Call.Ops[1:] {
		args[i] = op.Operand()
	}
	return a.Extern + "(" + strings.Join(args, ", ") + ")"
}
