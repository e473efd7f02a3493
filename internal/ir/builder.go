package ir

import "fmt"

// Builder incrementally constructs instructions at the end of a current
// block, assigning unique SSA names. It mirrors llvm::IRBuilder.
type Builder struct {
	Func *Function
	// Cur is the block new instructions are appended to.
	Cur *Block
}

// NewBuilder returns a builder positioned at fn's entry block (creating it
// if the function has no blocks yet).
func NewBuilder(fn *Function) *Builder {
	b := &Builder{Func: fn}
	if len(fn.Blocks) == 0 {
		b.Cur = fn.NewBlock("entry")
	} else {
		b.Cur = fn.Blocks[len(fn.Blocks)-1]
	}
	return b
}

// SetBlock repositions the builder at the end of blk.
func (b *Builder) SetBlock(blk *Block) { b.Cur = blk }

func (b *Builder) emit(in *Instruction) *Instruction {
	if in.Ident == "" {
		// Result-less instructions get names too, so diagnostics and
		// solution orderings can tell distinct branches and stores apart.
		in.Ident = b.Func.uniqueName("t")
	}
	return b.Cur.Append(in)
}

func binOpType(op Opcode, lhs Value) *Type { return lhs.Type() }

// Bin builds a binary arithmetic instruction.
func (b *Builder) Bin(op Opcode, lhs, rhs Value) *Instruction {
	return b.emit(&Instruction{Op: op, Ty: binOpType(op, lhs), Ops: []Value{lhs, rhs}})
}

// Add builds an integer add.
func (b *Builder) Add(lhs, rhs Value) *Instruction { return b.Bin(OpAdd, lhs, rhs) }

// Sub builds an integer sub.
func (b *Builder) Sub(lhs, rhs Value) *Instruction { return b.Bin(OpSub, lhs, rhs) }

// Mul builds an integer mul.
func (b *Builder) Mul(lhs, rhs Value) *Instruction { return b.Bin(OpMul, lhs, rhs) }

// SDiv builds a signed integer division.
func (b *Builder) SDiv(lhs, rhs Value) *Instruction { return b.Bin(OpSDiv, lhs, rhs) }

// SRem builds a signed integer remainder.
func (b *Builder) SRem(lhs, rhs Value) *Instruction { return b.Bin(OpSRem, lhs, rhs) }

// FAdd builds a floating point add.
func (b *Builder) FAdd(lhs, rhs Value) *Instruction { return b.Bin(OpFAdd, lhs, rhs) }

// FSub builds a floating point sub.
func (b *Builder) FSub(lhs, rhs Value) *Instruction { return b.Bin(OpFSub, lhs, rhs) }

// FMul builds a floating point mul.
func (b *Builder) FMul(lhs, rhs Value) *Instruction { return b.Bin(OpFMul, lhs, rhs) }

// FDiv builds a floating point div.
func (b *Builder) FDiv(lhs, rhs Value) *Instruction { return b.Bin(OpFDiv, lhs, rhs) }

// Alloca builds a stack allocation of count elements of elem type.
func (b *Builder) Alloca(elem *Type, count int, name string) *Instruction {
	return b.emit(&Instruction{Op: OpAlloca, Ty: PointerTo(elem), Ident: name, AllocaCount: count})
}

// Load builds a load through ptr.
func (b *Builder) Load(ptr Value) *Instruction {
	pt := ptr.Type()
	if !pt.IsPointer() {
		panic(fmt.Sprintf("ir: load from non-pointer %s", pt))
	}
	return b.emit(&Instruction{Op: OpLoad, Ty: pt.Elem, Ops: []Value{ptr}})
}

// Store builds a store of val through ptr.
func (b *Builder) Store(val, ptr Value) *Instruction {
	return b.emit(&Instruction{Op: OpStore, Ty: Void, Ops: []Value{val, ptr}})
}

// GEP builds an element address computation ptr + idx (scaled by elem size).
func (b *Builder) GEP(ptr, idx Value) *Instruction {
	return b.emit(&Instruction{Op: OpGEP, Ty: ptr.Type(), Ops: []Value{ptr, idx}})
}

// ICmp builds an integer comparison.
func (b *Builder) ICmp(p Predicate, lhs, rhs Value) *Instruction {
	return b.emit(&Instruction{Op: OpICmp, Ty: Bool, Pred: p, Ops: []Value{lhs, rhs}})
}

// FCmp builds a floating point comparison.
func (b *Builder) FCmp(p Predicate, lhs, rhs Value) *Instruction {
	return b.emit(&Instruction{Op: OpFCmp, Ty: Bool, Pred: p, Ops: []Value{lhs, rhs}})
}

// Select builds a select between two values.
func (b *Builder) Select(cond, ifTrue, ifFalse Value) *Instruction {
	return b.emit(&Instruction{Op: OpSelect, Ty: ifTrue.Type(), Ops: []Value{cond, ifTrue, ifFalse}})
}

// Cast builds a conversion instruction of the given opcode to type ty.
func (b *Builder) Cast(op Opcode, v Value, ty *Type) *Instruction {
	return b.emit(&Instruction{Op: op, Ty: ty, Ops: []Value{v}})
}

// Br builds an unconditional branch to target.
func (b *Builder) Br(target *Block) *Instruction {
	return b.emit(&Instruction{Op: OpBr, Ty: Void, Succs: []*Block{target}})
}

// CondBr builds a conditional branch.
func (b *Builder) CondBr(cond Value, then, els *Block) *Instruction {
	return b.emit(&Instruction{Op: OpBr, Ty: Void, Ops: []Value{cond}, Succs: []*Block{then, els}})
}

// Ret builds a return; v may be nil for void returns.
func (b *Builder) Ret(v Value) *Instruction {
	in := &Instruction{Op: OpRet, Ty: Void}
	if v != nil {
		in.Ops = []Value{v}
	}
	return b.emit(in)
}

// Phi builds an empty phi of type ty; incoming edges are added with
// AddIncoming. Phis must precede non-phi instructions in their block; the
// builder inserts them at the phi position.
func (b *Builder) Phi(ty *Type, name string) *Instruction {
	in := &Instruction{Op: OpPhi, Ty: ty, Ident: name}
	if in.Ident == "" {
		in.Ident = b.Func.uniqueName("phi")
	}
	// Insert after existing phis, before any other instruction.
	pos := 0
	for pos < len(b.Cur.Instrs) && b.Cur.Instrs[pos].Op == OpPhi {
		pos++
	}
	in.Block = b.Cur
	b.Cur.Instrs = append(b.Cur.Instrs, nil)
	copy(b.Cur.Instrs[pos+1:], b.Cur.Instrs[pos:])
	b.Cur.Instrs[pos] = in
	for i := pos; i < len(b.Cur.Instrs); i++ {
		b.Cur.Instrs[i].index = i
	}
	return in
}

// AddIncoming appends an incoming (value, predecessor) pair to a phi.
func AddIncoming(phi *Instruction, v Value, pred *Block) {
	if phi.Op != OpPhi {
		panic("ir: AddIncoming on non-phi")
	}
	phi.Ops = append(phi.Ops, v)
	phi.Incoming = append(phi.Incoming, pred)
}

// Call builds a call to callee with the given result type and arguments.
func (b *Builder) Call(callee Value, ret *Type, args ...Value) *Instruction {
	ops := append([]Value{callee}, args...)
	return b.emit(&Instruction{Op: OpCall, Ty: ret, Ops: ops})
}

// MathOp builds one of the math intrinsics (sqrt, exp, ...).
func (b *Builder) MathOp(op Opcode, args ...Value) *Instruction {
	return b.emit(&Instruction{Op: op, Ty: args[0].Type(), Ops: args})
}
