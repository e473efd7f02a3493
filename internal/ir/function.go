package ir

import (
	"fmt"
	"strings"
)

// Block is a basic block: a label followed by a straight-line instruction
// sequence ending in exactly one terminator.
type Block struct {
	Ident  string
	Parent *Function
	Instrs []*Instruction

	// index caches the position within the parent function.
	index int
}

// Type implements Value (blocks appear as label operands conceptually).
func (b *Block) Type() *Type { return Label }

// Name implements Value.
func (b *Block) Name() string { return b.Ident }

// Operand implements Value.
func (b *Block) Operand() string { return "%" + b.Ident }

// Append adds an instruction at the end of the block and sets its parent.
func (b *Block) Append(in *Instruction) *Instruction {
	in.Block = b
	in.index = len(b.Instrs)
	b.Instrs = append(b.Instrs, in)
	return in
}

// Terminator returns the block's terminator, or nil if the block is still
// under construction.
func (b *Block) Terminator() *Instruction {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if !last.IsTerminator() {
		return nil
	}
	return last
}

// First returns the first instruction of the block, or nil when empty.
func (b *Block) First() *Instruction {
	if len(b.Instrs) == 0 {
		return nil
	}
	return b.Instrs[0]
}

// Phis returns the leading phi instructions of the block.
func (b *Block) Phis() []*Instruction {
	var out []*Instruction
	for _, in := range b.Instrs {
		if in.Op != OpPhi {
			break
		}
		out = append(out, in)
	}
	return out
}

// Function is a single function: arguments plus a list of basic blocks, the
// first of which is the entry block.
type Function struct {
	Ident  string
	Ret    *Type
	Args   []*Argument
	Blocks []*Block
	Parent *Module

	nameCounter int
}

// NewFunction creates a function with the given name, return type and typed
// parameter names.
func NewFunction(name string, ret *Type, params ...*Argument) *Function {
	f := &Function{Ident: name, Ret: ret}
	for i, p := range params {
		p.Parent = f
		p.Index = i
		f.Args = append(f.Args, p)
	}
	return f
}

// Arg creates an argument suitable for passing to NewFunction.
func Arg(name string, ty *Type) *Argument {
	return &Argument{Ident: name, Ty: ty}
}

// Type implements Value.
func (f *Function) Type() *Type { return &Type{Kind: KindFunc} }

// Name implements Value.
func (f *Function) Name() string { return f.Ident }

// Operand implements Value.
func (f *Function) Operand() string { return "@" + f.Ident }

// NewBlock appends a new basic block with a unique label derived from hint.
func (f *Function) NewBlock(hint string) *Block {
	if hint == "" {
		hint = "bb"
	}
	name := f.uniqueName(hint)
	b := &Block{Ident: name, Parent: f, index: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Entry returns the entry block of the function.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// uniqueName returns hint, made unique within the function by suffixing.
func (f *Function) uniqueName(hint string) string {
	f.nameCounter++
	return fmt.Sprintf("%s%d", hint, f.nameCounter)
}

// FreshName returns a new SSA name unique within the function, derived from
// hint. It is used by passes that synthesize values (e.g. mem2reg phis).
func (f *Function) FreshName(hint string) string {
	return f.uniqueName(hint)
}

// Instructions returns all instructions of the function in block order. The
// returned slice is freshly allocated.
func (f *Function) Instructions() []*Instruction {
	var out []*Instruction
	for _, b := range f.Blocks {
		out = append(out, b.Instrs...)
	}
	return out
}

// ValueByName finds an instruction or argument by SSA name, or nil.
func (f *Function) ValueByName(name string) Value {
	for _, a := range f.Args {
		if a.Ident == name {
			return a
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Ident == name && in.HasResult() {
				return in
			}
		}
	}
	return nil
}

// String renders the function in LLVM-like textual form.
func (f *Function) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "define %s @%s(", f.Ret, f.Ident)
	for i, a := range f.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s %%%s", a.Ty, a.Ident)
	}
	sb.WriteString(") {\n")
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s:\n", b.Ident)
		for _, in := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", in)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Module is a collection of functions plus references to external symbols.
type Module struct {
	Ident     string
	Functions []*Function
	// Externals lists declared-but-not-defined symbols (API entry points).
	Externals []*GlobalRef
}

// NewModule creates an empty module.
func NewModule(name string) *Module {
	return &Module{Ident: name}
}

// AddFunction appends fn to the module.
func (m *Module) AddFunction(fn *Function) {
	fn.Parent = m
	m.Functions = append(m.Functions, fn)
}

// FunctionByName returns the named function or nil.
func (m *Module) FunctionByName(name string) *Function {
	for _, f := range m.Functions {
		if f.Ident == name {
			return f
		}
	}
	return nil
}

// DeclareExternal registers (or returns the existing) external symbol name.
func (m *Module) DeclareExternal(name string, ty *Type) *GlobalRef {
	for _, g := range m.Externals {
		if g.Ident == name {
			return g
		}
	}
	g := &GlobalRef{Ident: name, Ty: ty}
	m.Externals = append(m.Externals, g)
	return g
}

// String renders every function of the module.
func (m *Module) String() string {
	var sb strings.Builder
	for i, f := range m.Functions {
		if i > 0 {
			sb.WriteString("\n")
		}
		sb.WriteString(f.String())
	}
	return sb.String()
}
