package cc

import (
	"fmt"
	"strings"

	"repro/internal/ir"
)

// BaseBool is the internal type of comparison results (LLVM i1). It is not
// spellable in source; conversions to arithmetic types insert zext.
const BaseBool BaseKind = 99

var ctypeBool = CType{Base: BaseBool}

// irScalar maps a scalar base kind to its IR type.
func irScalar(b BaseKind) *ir.Type {
	switch b {
	case BaseVoid:
		return ir.Void
	case BaseBool:
		return ir.Bool
	case BaseInt:
		return ir.Int32
	case BaseLong:
		return ir.Int64
	case BaseFloat:
		return ir.Float
	case BaseDouble:
		return ir.Double
	}
	panic(fmt.Sprintf("cc: no IR type for base %d", b))
}

// irType maps a frontend type to its IR type. Arrays decay to a pointer to
// the (flattened) element type; multi-level pointers nest.
func irType(t CType) *ir.Type {
	out := irScalar(t.Base)
	for i := 0; i < t.PtrDepth; i++ {
		out = ir.PointerTo(out)
	}
	if len(t.Dims) > 0 {
		out = ir.PointerTo(out)
	}
	return out
}

// slot is a named storage location (an alloca) with its frontend type.
type slot struct {
	ty CType
	// ptr is the alloca holding the value. For local arrays ptr is the
	// array storage itself rather than a cell holding a pointer.
	ptr      ir.Value
	isStorge bool // true when ptr IS the array storage (local arrays)
}

type loopCtx struct {
	breakTo    *ir.Block
	continueTo *ir.Block
}

type lowerer struct {
	mod   *ir.Module
	fns   map[string]*ir.Function
	decls map[string]*FuncDecl

	fn     *ir.Function
	b      *ir.Builder
	scopes []map[string]*slot
	loops  []loopCtx
	// terminated marks that the current block already ends in a terminator.
	terminated bool
}

// Compile parses and lowers a translation unit into an SSA-form module.
func Compile(name, src string) (*ir.Module, error) {
	file, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileFile(name, file)
}

// CompileFile lowers an already-parsed file.
func CompileFile(name string, file *File) (*ir.Module, error) {
	mod := ir.NewModule(name)
	lw := &lowerer{mod: mod, fns: map[string]*ir.Function{}, decls: map[string]*FuncDecl{}}

	// First pass: declare all functions so calls can reference them. Every
	// declaration has a body, so a repeated name is a redefinition.
	for _, fd := range file.Funcs {
		if lw.decls[fd.Name] != nil {
			return nil, fmt.Errorf("cc: redefinition of %s", fd.Name)
		}
		var args []*ir.Argument
		for _, p := range fd.Params {
			args = append(args, ir.Arg(p.Name, irType(p.Ty)))
		}
		fn := ir.NewFunction(fd.Name, irScalar(fd.Ret.Base), args...)
		mod.AddFunction(fn)
		lw.fns[fd.Name] = fn
		lw.decls[fd.Name] = fd
	}

	for _, fd := range file.Funcs {
		if err := lw.lowerFunc(fd); err != nil {
			return nil, err
		}
	}
	for _, fn := range mod.Functions {
		removeUnreachable(fn)
		PromoteMemToReg(fn)
		ir.EliminateDeadCode(fn)
		if err := ir.Verify(fn); err != nil {
			return nil, fmt.Errorf("cc: internal error lowering %s: %w", fn.Ident, err)
		}
	}
	return mod, nil
}

func (lw *lowerer) pushScope() { lw.scopes = append(lw.scopes, map[string]*slot{}) }
func (lw *lowerer) popScope()  { lw.scopes = lw.scopes[:len(lw.scopes)-1] }

func (lw *lowerer) lookup(name string) *slot {
	for i := len(lw.scopes) - 1; i >= 0; i-- {
		if s, ok := lw.scopes[i][name]; ok {
			return s
		}
	}
	return nil
}

func (lw *lowerer) define(name string, s *slot) error {
	top := lw.scopes[len(lw.scopes)-1]
	if _, exists := top[name]; exists {
		return lw.errf("redeclaration of %s", name)
	}
	top[name] = s
	return nil
}

func (lw *lowerer) errf(format string, args ...any) error {
	return fmt.Errorf("cc: %s: %s", lw.fn.Ident, fmt.Sprintf(format, args...))
}

func (lw *lowerer) lowerFunc(fd *FuncDecl) error {
	fn := lw.fns[fd.Name]
	lw.fn = fn
	lw.b = ir.NewBuilder(fn)
	lw.scopes = nil
	lw.pushScope()
	defer lw.popScope()
	lw.terminated = false

	// Spill every parameter into an alloca; mem2reg re-promotes scalars and
	// pointers, producing clean SSA.
	for i, p := range fd.Params {
		al := lw.b.Alloca(irType(p.Ty), 1, p.Name+".addr")
		lw.b.Store(fn.Args[i], al)
		if err := lw.define(p.Name, &slot{ty: p.Ty, ptr: al}); err != nil {
			return err
		}
	}
	if err := lw.stmt(fd.Body, fd); err != nil {
		return err
	}
	if !lw.terminated {
		lw.emitDefaultReturn(fd)
	}
	// Terminate any dangling blocks created after returns.
	for _, blk := range fn.Blocks {
		if blk.Terminator() == nil {
			lw.b.SetBlock(blk)
			lw.terminated = false
			lw.emitDefaultReturn(fd)
		}
	}
	return nil
}

func (lw *lowerer) emitDefaultReturn(fd *FuncDecl) {
	if fd.Ret.Base == BaseVoid {
		lw.b.Ret(nil)
	} else if irScalar(fd.Ret.Base).IsFloat() {
		lw.b.Ret(ir.ConstFloat(irScalar(fd.Ret.Base), 0))
	} else {
		lw.b.Ret(ir.ConstInt(irScalar(fd.Ret.Base), 0))
	}
	lw.terminated = true
}

// startBlock repositions the builder and clears the terminated flag.
func (lw *lowerer) startBlock(b *ir.Block) {
	lw.b.SetBlock(b)
	lw.terminated = false
}

func flatCount(dims []int) int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return n
}

func (lw *lowerer) stmt(s Stmt, fd *FuncDecl) error {
	if lw.terminated {
		// Code after return/break: emit into a fresh unreachable block so
		// lowering stays simple; removeUnreachable cleans it up.
		lw.startBlock(lw.fn.NewBlock("dead"))
	}
	switch st := s.(type) {
	case *Block:
		lw.pushScope()
		defer lw.popScope()
		for _, inner := range st.Stmts {
			if err := lw.stmt(inner, fd); err != nil {
				return err
			}
		}
		return nil

	case *VarDecl:
		elemTy := irScalar(st.Ty.Base)
		if len(st.Ty.Dims) > 0 {
			al := lw.b.Alloca(elemTy, flatCount(st.Ty.Dims), st.Name)
			if err := lw.define(st.Name, &slot{ty: st.Ty, ptr: al, isStorge: true}); err != nil {
				return err
			}
			if st.Init != nil {
				return lw.errf("array initializers are not supported")
			}
			return nil
		}
		al := lw.b.Alloca(irType(st.Ty), 1, st.Name+".addr")
		if err := lw.define(st.Name, &slot{ty: st.Ty, ptr: al}); err != nil {
			return err
		}
		if st.Init != nil {
			v, vt, err := lw.expr(st.Init)
			if err != nil {
				return err
			}
			cv, err := lw.convert(v, vt, st.Ty)
			if err != nil {
				return err
			}
			lw.b.Store(cv, al)
		}
		return nil

	case *Assign:
		addr, lt, err := lw.addr(st.LHS)
		if err != nil {
			return err
		}
		rhs, rt, err := lw.expr(st.RHS)
		if err != nil {
			return err
		}
		if st.Op != "=" {
			old := lw.b.Load(addr)
			opch := strings.TrimSuffix(st.Op, "=")
			nv, nt, err := lw.binArith(opch, old, lt, rhs, rt)
			if err != nil {
				return err
			}
			rhs, rt = nv, nt
		}
		cv, err := lw.convert(rhs, rt, lt)
		if err != nil {
			return err
		}
		lw.b.Store(cv, addr)
		return nil

	case *IncDec:
		addr, lt, err := lw.addr(st.LHS)
		if err != nil {
			return err
		}
		old := lw.b.Load(addr)
		var nv ir.Value
		if lt.IsFloat() {
			one := ir.ConstFloat(irScalar(lt.Base), 1)
			if st.Dec {
				nv = lw.b.FSub(old, one)
			} else {
				nv = lw.b.FAdd(old, one)
			}
		} else {
			one := ir.ConstInt(irScalar(lt.Base), 1)
			if st.Dec {
				nv = lw.b.Sub(old, one)
			} else {
				nv = lw.b.Add(old, one)
			}
		}
		lw.b.Store(nv, addr)
		return nil

	case *ExprStmt:
		_, _, err := lw.expr(st.X)
		return err

	case *Return:
		if st.X == nil {
			lw.b.Ret(nil)
			lw.terminated = true
			return nil
		}
		v, vt, err := lw.expr(st.X)
		if err != nil {
			return err
		}
		cv, err := lw.convert(v, vt, fd.Ret)
		if err != nil {
			return err
		}
		lw.b.Ret(cv)
		lw.terminated = true
		return nil

	case *If:
		cond, err := lw.cond(st.Cond)
		if err != nil {
			return err
		}
		thenB := lw.fn.NewBlock("if.then")
		var elseB *ir.Block
		mergeB := lw.fn.NewBlock("if.end")
		if st.Else != nil {
			elseB = lw.fn.NewBlock("if.else")
			lw.b.CondBr(cond, thenB, elseB)
		} else {
			lw.b.CondBr(cond, thenB, mergeB)
		}
		lw.startBlock(thenB)
		if err := lw.stmt(st.Then, fd); err != nil {
			return err
		}
		if !lw.terminated {
			lw.b.Br(mergeB)
		}
		if st.Else != nil {
			lw.startBlock(elseB)
			if err := lw.stmt(st.Else, fd); err != nil {
				return err
			}
			if !lw.terminated {
				lw.b.Br(mergeB)
			}
		}
		lw.startBlock(mergeB)
		return nil

	case *For:
		lw.pushScope()
		defer lw.popScope()
		if st.Init != nil {
			if err := lw.stmt(st.Init, fd); err != nil {
				return err
			}
		}
		header := lw.fn.NewBlock("for.cond")
		body := lw.fn.NewBlock("for.body")
		latch := lw.fn.NewBlock("for.inc")
		exit := lw.fn.NewBlock("for.end")
		lw.b.Br(header)

		lw.startBlock(header)
		if st.Cond != nil {
			cond, err := lw.cond(st.Cond)
			if err != nil {
				return err
			}
			lw.b.CondBr(cond, body, exit)
		} else {
			lw.b.Br(body)
		}

		lw.loops = append(lw.loops, loopCtx{breakTo: exit, continueTo: latch})
		lw.startBlock(body)
		if err := lw.stmt(st.Body, fd); err != nil {
			return err
		}
		if !lw.terminated {
			lw.b.Br(latch)
		}
		lw.loops = lw.loops[:len(lw.loops)-1]

		lw.startBlock(latch)
		if st.Post != nil {
			if err := lw.stmt(st.Post, fd); err != nil {
				return err
			}
		}
		lw.b.Br(header)
		lw.startBlock(exit)
		return nil

	case *While:
		header := lw.fn.NewBlock("while.cond")
		body := lw.fn.NewBlock("while.body")
		exit := lw.fn.NewBlock("while.end")
		lw.b.Br(header)

		lw.startBlock(header)
		cond, err := lw.cond(st.Cond)
		if err != nil {
			return err
		}
		lw.b.CondBr(cond, body, exit)

		lw.loops = append(lw.loops, loopCtx{breakTo: exit, continueTo: header})
		lw.startBlock(body)
		if err := lw.stmt(st.Body, fd); err != nil {
			return err
		}
		if !lw.terminated {
			lw.b.Br(header)
		}
		lw.loops = lw.loops[:len(lw.loops)-1]
		lw.startBlock(exit)
		return nil

	case *BreakStmt:
		if len(lw.loops) == 0 {
			return lw.errf("break outside loop")
		}
		lw.b.Br(lw.loops[len(lw.loops)-1].breakTo)
		lw.terminated = true
		return nil

	case *ContinueStmt:
		if len(lw.loops) == 0 {
			return lw.errf("continue outside loop")
		}
		lw.b.Br(lw.loops[len(lw.loops)-1].continueTo)
		lw.terminated = true
		return nil
	}
	return lw.errf("unhandled statement %T", s)
}

// addr lowers an lvalue expression to an address and its element type.
func (lw *lowerer) addr(e Expr) (ir.Value, CType, error) {
	switch x := e.(type) {
	case *Ident:
		sl := lw.lookup(x.Name)
		if sl == nil {
			return nil, CType{}, lw.errf("undefined variable %s at %d:%d", x.Name, x.Line, x.Col)
		}
		if sl.ty.IsPointerLike() && sl.isStorge {
			return nil, CType{}, lw.errf("cannot assign to array %s", x.Name)
		}
		return sl.ptr, sl.ty, nil
	case *Index:
		return lw.indexAddr(x)
	}
	return nil, CType{}, lw.errf("expression is not assignable")
}

// indexAddr lowers (possibly nested) array subscripts to an element address.
func (lw *lowerer) indexAddr(x *Index) (ir.Value, CType, error) {
	// Collect the chain of indices, innermost base first.
	var idxs []Expr
	base := Expr(x)
	for {
		ix, ok := base.(*Index)
		if !ok {
			break
		}
		idxs = append([]Expr{ix.Idx}, idxs...)
		base = ix.Base
	}

	bv, bt, err := lw.expr(base)
	if err != nil {
		return nil, CType{}, err
	}

	k := 0
	for k < len(idxs) {
		switch {
		case len(bt.Dims) > 0:
			// Consume up to len(Dims) indices with flattened addressing.
			nd := len(bt.Dims)
			if len(idxs[k:]) < nd {
				return nil, CType{}, lw.errf("partial array indexing is not supported")
			}
			var flat ir.Value
			for d := 0; d < nd; d++ {
				iv, it, err := lw.expr(idxs[k+d])
				if err != nil {
					return nil, CType{}, err
				}
				iv64, err := lw.convert(iv, it, CType{Base: BaseLong})
				if err != nil {
					return nil, CType{}, err
				}
				if d == 0 {
					flat = iv64
				} else {
					flat = lw.b.Add(lw.b.Mul(flat, ir.ConstInt(ir.Int64, int64(bt.Dims[d]))), iv64)
				}
			}
			addr := lw.b.GEP(bv, flat)
			elem := CType{Base: bt.Base, PtrDepth: bt.PtrDepth}
			k += nd
			if k == len(idxs) {
				return addr, elem, nil
			}
			bv = lw.b.Load(addr)
			bt = elem
		case bt.PtrDepth > 0:
			iv, it, err := lw.expr(idxs[k])
			if err != nil {
				return nil, CType{}, err
			}
			iv64, err := lw.convert(iv, it, CType{Base: BaseLong})
			if err != nil {
				return nil, CType{}, err
			}
			addr := lw.b.GEP(bv, iv64)
			elem := bt.Elem()
			k++
			if k == len(idxs) {
				return addr, elem, nil
			}
			bv = lw.b.Load(addr)
			bt = elem
		default:
			return nil, CType{}, lw.errf("cannot index non-pointer type %s", bt)
		}
	}
	return nil, CType{}, lw.errf("empty index chain")
}

// expr lowers an rvalue expression, returning its value and frontend type.
func (lw *lowerer) expr(e Expr) (ir.Value, CType, error) {
	switch x := e.(type) {
	case *IntLit:
		if x.Val > 1<<31-1 || x.Val < -(1<<31) {
			return ir.ConstInt(ir.Int64, x.Val), CType{Base: BaseLong}, nil
		}
		return ir.ConstInt(ir.Int32, x.Val), CType{Base: BaseInt}, nil

	case *FloatLit:
		if x.Single {
			return ir.ConstFloat(ir.Float, x.Val), CType{Base: BaseFloat}, nil
		}
		return ir.ConstFloat(ir.Double, x.Val), CType{Base: BaseDouble}, nil

	case *Ident:
		sl := lw.lookup(x.Name)
		if sl == nil {
			return nil, CType{}, lw.errf("undefined variable %s at %d:%d", x.Name, x.Line, x.Col)
		}
		if sl.isStorge {
			// Local array: the value is the storage pointer itself.
			return sl.ptr, sl.ty, nil
		}
		return lw.b.Load(sl.ptr), sl.ty, nil

	case *Index:
		addr, et, err := lw.indexAddr(x)
		if err != nil {
			return nil, CType{}, err
		}
		if et.IsPointerLike() && len(et.Dims) > 0 {
			return addr, et, nil
		}
		return lw.b.Load(addr), et, nil

	case *Unary:
		v, vt, err := lw.expr(x.X)
		if err != nil {
			return nil, CType{}, err
		}
		switch x.Op {
		case "-":
			if !vt.IsArith() {
				return nil, CType{}, lw.errf("unary - on %s", vt)
			}
			if vt.IsFloat() {
				return lw.b.FSub(ir.ConstFloat(irScalar(vt.Base), 0), v), vt, nil
			}
			if vt.Base == BaseBool {
				var cerr error
				v, cerr = lw.convert(v, vt, CType{Base: BaseInt})
				if cerr != nil {
					return nil, CType{}, cerr
				}
				vt = CType{Base: BaseInt}
			}
			return lw.b.Sub(ir.ConstInt(irScalar(vt.Base), 0), v), vt, nil
		case "!":
			c, err := lw.toBool(v, vt)
			if err != nil {
				return nil, CType{}, err
			}
			cmp := lw.b.ICmp(ir.PredEQ, c, ir.ConstInt(ir.Bool, 0))
			return cmp, ctypeBool, nil
		}
		return nil, CType{}, lw.errf("unhandled unary %s", x.Op)

	case *Binary:
		return lw.binary(x)

	case *Call:
		return lw.call(x)
	}
	return nil, CType{}, lw.errf("unhandled expression %T", e)
}

func (lw *lowerer) binary(x *Binary) (ir.Value, CType, error) {
	switch x.Op {
	case "&&", "||":
		lv, lt, err := lw.expr(x.L)
		if err != nil {
			return nil, CType{}, err
		}
		lb, err := lw.toBool(lv, lt)
		if err != nil {
			return nil, CType{}, err
		}
		rv, rt, err := lw.expr(x.R)
		if err != nil {
			return nil, CType{}, err
		}
		rb, err := lw.toBool(rv, rt)
		if err != nil {
			return nil, CType{}, err
		}
		if x.Op == "&&" {
			return lw.b.Select(lb, rb, ir.ConstInt(ir.Bool, 0)), ctypeBool, nil
		}
		return lw.b.Select(lb, ir.ConstInt(ir.Bool, 1), rb), ctypeBool, nil
	}

	lv, lt, err := lw.expr(x.L)
	if err != nil {
		return nil, CType{}, err
	}
	rv, rt, err := lw.expr(x.R)
	if err != nil {
		return nil, CType{}, err
	}
	switch x.Op {
	case "==", "!=", "<", "<=", ">", ">=":
		return lw.compare(x.Op, lv, lt, rv, rt)
	default:
		return lw.binArith(x.Op, lv, lt, rv, rt)
	}
}

// usualConv computes the C "usual arithmetic conversions" target type.
func usualConv(a, b CType) CType {
	rank := func(t CType) int {
		switch t.Base {
		case BaseDouble:
			return 5
		case BaseFloat:
			return 4
		case BaseLong:
			return 3
		case BaseInt:
			return 2
		case BaseBool:
			return 1
		}
		return 0
	}
	if rank(a) >= rank(b) {
		if a.Base == BaseBool {
			return CType{Base: BaseInt}
		}
		return CType{Base: a.Base}
	}
	if b.Base == BaseBool {
		return CType{Base: BaseInt}
	}
	return CType{Base: b.Base}
}

// binArith lowers + - * / %. Pointer arithmetic p + i is supported for
// pointer-typed operands.
func (lw *lowerer) binArith(op string, lv ir.Value, lt CType, rv ir.Value, rt CType) (ir.Value, CType, error) {
	if lt.IsPointerLike() && (op == "+" || op == "-") && rt.IsArith() {
		idx, err := lw.convert(rv, rt, CType{Base: BaseLong})
		if err != nil {
			return nil, CType{}, err
		}
		if op == "-" {
			idx = lw.b.Sub(ir.ConstInt(ir.Int64, 0), idx)
		}
		return lw.b.GEP(lv, idx), lt, nil
	}
	if !lt.IsArith() && lt.Base != BaseBool || !rt.IsArith() && rt.Base != BaseBool {
		return nil, CType{}, lw.errf("invalid operands to %s (%s, %s)", op, lt, rt)
	}
	ct := usualConv(lt, rt)
	clv, err := lw.convert(lv, lt, ct)
	if err != nil {
		return nil, CType{}, err
	}
	crv, err := lw.convert(rv, rt, ct)
	if err != nil {
		return nil, CType{}, err
	}
	isF := ct.IsFloat()
	switch op {
	case "+":
		if isF {
			return lw.b.FAdd(clv, crv), ct, nil
		}
		return lw.b.Add(clv, crv), ct, nil
	case "-":
		if isF {
			return lw.b.FSub(clv, crv), ct, nil
		}
		return lw.b.Sub(clv, crv), ct, nil
	case "*":
		if isF {
			return lw.b.FMul(clv, crv), ct, nil
		}
		return lw.b.Mul(clv, crv), ct, nil
	case "/":
		if isF {
			return lw.b.FDiv(clv, crv), ct, nil
		}
		return lw.b.SDiv(clv, crv), ct, nil
	case "%":
		if isF {
			return nil, CType{}, lw.errf("%% requires integer operands")
		}
		return lw.b.SRem(clv, crv), ct, nil
	}
	return nil, CType{}, lw.errf("unhandled operator %s", op)
}

var cmpPreds = map[string]ir.Predicate{
	"==": ir.PredEQ, "!=": ir.PredNE, "<": ir.PredLT, "<=": ir.PredLE, ">": ir.PredGT, ">=": ir.PredGE,
}

func (lw *lowerer) compare(op string, lv ir.Value, lt CType, rv ir.Value, rt CType) (ir.Value, CType, error) {
	if lt.IsPointerLike() && rt.IsPointerLike() {
		return lw.b.ICmp(cmpPreds[op], lv, rv), ctypeBool, nil
	}
	ct := usualConv(lt, rt)
	clv, err := lw.convert(lv, lt, ct)
	if err != nil {
		return nil, CType{}, err
	}
	crv, err := lw.convert(rv, rt, ct)
	if err != nil {
		return nil, CType{}, err
	}
	if ct.IsFloat() {
		return lw.b.FCmp(cmpPreds[op], clv, crv), ctypeBool, nil
	}
	return lw.b.ICmp(cmpPreds[op], clv, crv), ctypeBool, nil
}

// cond lowers an expression in boolean context to an i1 value.
func (lw *lowerer) cond(e Expr) (ir.Value, error) {
	v, vt, err := lw.expr(e)
	if err != nil {
		return nil, err
	}
	return lw.toBool(v, vt)
}

func (lw *lowerer) toBool(v ir.Value, vt CType) (ir.Value, error) {
	switch {
	case vt.Base == BaseBool:
		return v, nil
	case vt.IsFloat():
		return lw.b.FCmp(ir.PredNE, v, ir.ConstFloat(irScalar(vt.Base), 0)), nil
	case vt.IsInteger():
		return lw.b.ICmp(ir.PredNE, v, ir.ConstInt(irScalar(vt.Base), 0)), nil
	case vt.IsPointerLike():
		return lw.b.ICmp(ir.PredNE, v, ir.ConstNull(irType(vt))), nil
	}
	return nil, lw.errf("expression of type %s is not a condition", vt)
}

// convert inserts the conversion from type `from` to type `to`.
func (lw *lowerer) convert(v ir.Value, from, to CType) (ir.Value, error) {
	if from.Base == to.Base && from.PtrDepth == to.PtrDepth && len(from.Dims) == len(to.Dims) {
		return v, nil
	}
	if from.IsPointerLike() && to.IsPointerLike() {
		return v, nil // pointer conversions are free in this IR
	}
	// Constant folding keeps literals readable in the IR.
	if c, ok := v.(*ir.Const); ok {
		return foldConst(c, to)
	}
	fb, tb := from.Base, to.Base
	switch {
	case fb == BaseBool && (tb == BaseInt || tb == BaseLong):
		return lw.b.Cast(ir.OpZExt, v, irScalar(tb)), nil
	case fb == BaseBool && (tb == BaseFloat || tb == BaseDouble):
		i := lw.b.Cast(ir.OpZExt, v, ir.Int32)
		return lw.b.Cast(ir.OpSIToFP, i, irScalar(tb)), nil
	case fb == BaseInt && tb == BaseLong:
		return lw.b.Cast(ir.OpSExt, v, ir.Int64), nil
	case fb == BaseLong && tb == BaseInt:
		return lw.b.Cast(ir.OpTrunc, v, ir.Int32), nil
	case (fb == BaseInt || fb == BaseLong) && (tb == BaseFloat || tb == BaseDouble):
		return lw.b.Cast(ir.OpSIToFP, v, irScalar(tb)), nil
	case (fb == BaseFloat || fb == BaseDouble) && (tb == BaseInt || tb == BaseLong):
		return lw.b.Cast(ir.OpFPToSI, v, irScalar(tb)), nil
	case fb == BaseFloat && tb == BaseDouble:
		return lw.b.Cast(ir.OpFPExt, v, ir.Double), nil
	case fb == BaseDouble && tb == BaseFloat:
		return lw.b.Cast(ir.OpFPTrunc, v, ir.Float), nil
	}
	return nil, lw.errf("cannot convert %s to %s", from, to)
}

func foldConst(c *ir.Const, to CType) (ir.Value, error) {
	t := irScalar(to.Base)
	switch {
	case c.Ty.IsInteger() && t.IsInteger():
		return ir.ConstInt(t, c.IntVal), nil
	case c.Ty.IsInteger() && t.IsFloat():
		return ir.ConstFloat(t, float64(c.IntVal)), nil
	case c.Ty.IsFloat() && t.IsFloat():
		return ir.ConstFloat(t, c.FloatVal), nil
	case c.Ty.IsFloat() && t.IsInteger():
		return ir.ConstInt(t, int64(c.FloatVal)), nil
	}
	return c, nil
}

// mathBuiltins maps C math function names to IR opcodes.
var mathBuiltins = map[string]ir.Opcode{
	"sqrt": ir.OpSqrt, "sqrtf": ir.OpSqrt,
	"fabs": ir.OpFAbs, "fabsf": ir.OpFAbs,
	"exp": ir.OpExp, "expf": ir.OpExp,
	"log": ir.OpLog, "logf": ir.OpLog,
	"sin": ir.OpSin, "sinf": ir.OpSin,
	"cos": ir.OpCos, "cosf": ir.OpCos,
	"pow": ir.OpPow, "powf": ir.OpPow,
	"floor": ir.OpFloor, "floorf": ir.OpFloor,
}

func (lw *lowerer) call(x *Call) (ir.Value, CType, error) {
	if strings.HasPrefix(x.Name, "__cast_") {
		tyStr := strings.TrimPrefix(x.Name, "__cast_")
		to, err := parseTypeString(tyStr)
		if err != nil {
			return nil, CType{}, lw.errf("bad cast: %v", err)
		}
		if len(x.Args) != 1 {
			return nil, CType{}, lw.errf("cast expects 1 operand, got %d", len(x.Args))
		}
		v, vt, err := lw.expr(x.Args[0])
		if err != nil {
			return nil, CType{}, err
		}
		cv, err := lw.convert(v, vt, to)
		return cv, to, err
	}

	if op, ok := mathBuiltins[x.Name]; ok {
		arity := 1
		if op == ir.OpPow {
			arity = 2
		}
		if len(x.Args) != arity {
			return nil, CType{}, lw.errf("%s expects %d arguments, got %d", x.Name, arity, len(x.Args))
		}
		single := strings.HasSuffix(x.Name, "f")
		want := CType{Base: BaseDouble}
		if single {
			want = CType{Base: BaseFloat}
		}
		var args []ir.Value
		for _, ae := range x.Args {
			v, vt, err := lw.expr(ae)
			if err != nil {
				return nil, CType{}, err
			}
			cv, err := lw.convert(v, vt, want)
			if err != nil {
				return nil, CType{}, err
			}
			args = append(args, cv)
		}
		return lw.b.MathOp(op, args...), want, nil
	}

	callee, ok := lw.fns[x.Name]
	if !ok {
		return nil, CType{}, lw.errf("call to undefined function %s", x.Name)
	}
	decl := lw.decls[x.Name]
	if len(x.Args) != len(decl.Params) {
		return nil, CType{}, lw.errf("%s expects %d arguments, got %d", x.Name, len(decl.Params), len(x.Args))
	}
	var args []ir.Value
	for i, ae := range x.Args {
		v, vt, err := lw.expr(ae)
		if err != nil {
			return nil, CType{}, err
		}
		cv, err := lw.convert(v, vt, decl.Params[i].Ty)
		if err != nil {
			return nil, CType{}, err
		}
		args = append(args, cv)
	}
	ret := lw.b.Call(callee, irScalar(decl.Ret.Base), args...)
	return ret, decl.Ret, nil
}

// parseTypeString parses type syntax used by cast pseudo-calls.
func parseTypeString(s string) (CType, error) {
	base := strings.TrimRight(s, "*")
	depth := len(s) - len(base)
	var b BaseKind
	switch base {
	case "int":
		b = BaseInt
	case "long":
		b = BaseLong
	case "float":
		b = BaseFloat
	case "double":
		b = BaseDouble
	case "void":
		b = BaseVoid
	default:
		return CType{}, fmt.Errorf("unknown type %q", s)
	}
	return CType{Base: b, PtrDepth: depth}, nil
}

// removeUnreachable deletes blocks with no path from the entry block.
func removeUnreachable(fn *ir.Function) {
	if len(fn.Blocks) == 0 {
		return
	}
	reachable := map[*ir.Block]bool{fn.Entry(): true}
	stack := []*ir.Block{fn.Entry()}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t := b.Terminator(); t != nil {
			for _, s := range t.Succs {
				if !reachable[s] {
					reachable[s] = true
					stack = append(stack, s)
				}
			}
		}
	}
	var kept []*ir.Block
	for _, b := range fn.Blocks {
		if reachable[b] {
			kept = append(kept, b)
		}
	}
	fn.Blocks = kept
}
