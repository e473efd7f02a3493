package interp

import (
	"fmt"
	"math"

	"repro/internal/ir"
)

// Counts aggregates dynamic operation counts; the heterogeneous performance
// model consumes these (see internal/hetero/platform).
type Counts struct {
	Flops      int64 // floating point add/sub/mul/div
	MathOps    int64 // sqrt/exp/log/... (weighted as several flops by models)
	IntOps     int64 // integer arithmetic, compares, casts, geps
	Loads      int64
	Stores     int64
	LoadBytes  int64
	StoreBytes int64
	Branches   int64
	Calls      int64
	Steps      int64 // every executed instruction
}

// ExternFn implements an external (runtime API) function. It receives the
// machine so it can touch buffers directly.
type ExternFn func(m *Machine, args []Value) (Value, error)

// Machine executes IR functions.
type Machine struct {
	Mod *ir.Module
	// Externs maps external symbol names to implementations.
	Externs map[string]ExternFn
	// Counts accumulates operation counts across Exec calls.
	Counts Counts
	// MaxSteps bounds execution (0 = default limit).
	MaxSteps int64
	// Profile, when non-nil, receives per-instruction execution counts.
	Profile map[*ir.Instruction]int64

	// ptrTable backs pointers stored to memory (double** support).
	ptrTable []Pointer
}

// NewMachine creates a machine for the module.
func NewMachine(mod *ir.Module) *Machine {
	return &Machine{
		Mod:      mod,
		Externs:  map[string]ExternFn{},
		MaxSteps: 2_000_000_000,
	}
}

// frame is one function activation.
type frame struct {
	fn   *ir.Function
	vals map[ir.Value]Value
}

func (fr *frame) get(v ir.Value) (Value, error) {
	switch x := v.(type) {
	case *ir.Const:
		switch {
		case x.Null:
			return PtrValue(Pointer{}), nil
		case x.Ty.IsFloat():
			return FloatValue(x.FloatVal), nil
		default:
			return IntValue(x.IntVal), nil
		}
	default:
		val, ok := fr.vals[v]
		if !ok {
			return Value{}, fmt.Errorf("interp: use of undefined value %s", v.Operand())
		}
		return val, nil
	}
}

// Exec runs fn with the given arguments and returns its result (zero Value
// for void functions).
func (m *Machine) Exec(fn *ir.Function, args ...Value) (Value, error) {
	if len(args) != len(fn.Args) {
		return Value{}, fmt.Errorf("interp: %s expects %d args, got %d", fn.Ident, len(fn.Args), len(args))
	}
	fr := &frame{fn: fn, vals: map[ir.Value]Value{}}
	for i, a := range fn.Args {
		fr.vals[a] = args[i]
	}

	block := fn.Entry()
	var prev *ir.Block
	for {
		// Phase 1: evaluate all phis of the block against prev.
		phis := block.Phis()
		if len(phis) > 0 {
			tmp := make([]Value, len(phis))
			for i, phi := range phis {
				in := phi.IncomingFor(prev)
				if in == nil {
					return Value{}, fmt.Errorf("interp: phi %%%s has no incoming for %s", phi.Ident, prev.Ident)
				}
				v, err := fr.get(in)
				if err != nil {
					return Value{}, err
				}
				tmp[i] = v
			}
			for i, phi := range phis {
				fr.vals[phi] = tmp[i]
				m.Counts.Steps++
				if m.Profile != nil {
					m.Profile[phi]++
				}
			}
		}

		for _, in := range block.Instrs[len(phis):] {
			m.Counts.Steps++
			if m.Counts.Steps > m.MaxSteps {
				return Value{}, fmt.Errorf("interp: step limit exceeded in %s", fn.Ident)
			}
			if m.Profile != nil {
				m.Profile[in]++
			}
			switch in.Op {
			case ir.OpBr:
				m.Counts.Branches++
				next := block
				if len(in.Ops) == 1 {
					c, err := fr.get(in.Ops[0])
					if err != nil {
						return Value{}, err
					}
					if c.Bool() {
						next = in.Succs[0]
					} else {
						next = in.Succs[1]
					}
				} else {
					next = in.Succs[0]
				}
				prev = block
				block = next
				goto nextBlock

			case ir.OpRet:
				if len(in.Ops) == 0 {
					return Value{}, nil
				}
				return fr.get(in.Ops[0])

			default:
				if err := m.execInstr(fr, in); err != nil {
					return Value{}, err
				}
			}
		}
		return Value{}, fmt.Errorf("interp: block %s fell through without terminator", block.Ident)
	nextBlock:
	}
}

func (m *Machine) execInstr(fr *frame, in *ir.Instruction) error {
	ops := make([]Value, len(in.Ops))
	for i, o := range in.Ops {
		if i == 0 && in.Op == ir.OpCall {
			continue // the callee is not a runtime value
		}
		v, err := fr.get(o)
		if err != nil {
			return err
		}
		ops[i] = v
	}
	switch in.Op {
	case ir.OpAdd:
		m.Counts.IntOps++
		fr.vals[in] = IntValue(wrapInt(in.Ty, ops[0].Int()+ops[1].Int()))
	case ir.OpSub:
		m.Counts.IntOps++
		fr.vals[in] = IntValue(wrapInt(in.Ty, ops[0].Int()-ops[1].Int()))
	case ir.OpMul:
		m.Counts.IntOps++
		fr.vals[in] = IntValue(wrapInt(in.Ty, ops[0].Int()*ops[1].Int()))
	case ir.OpSDiv:
		m.Counts.IntOps++
		if ops[1].Int() == 0 {
			return fmt.Errorf("interp: division by zero at %%%s", in.Ident)
		}
		fr.vals[in] = IntValue(wrapInt(in.Ty, ops[0].Int()/ops[1].Int()))
	case ir.OpSRem:
		m.Counts.IntOps++
		if ops[1].Int() == 0 {
			return fmt.Errorf("interp: remainder by zero at %%%s", in.Ident)
		}
		fr.vals[in] = IntValue(wrapInt(in.Ty, ops[0].Int()%ops[1].Int()))

	case ir.OpFAdd:
		m.Counts.Flops++
		fr.vals[in] = m.roundFloat(in.Ty, ops[0].Float()+ops[1].Float())
	case ir.OpFSub:
		m.Counts.Flops++
		fr.vals[in] = m.roundFloat(in.Ty, ops[0].Float()-ops[1].Float())
	case ir.OpFMul:
		m.Counts.Flops++
		fr.vals[in] = m.roundFloat(in.Ty, ops[0].Float()*ops[1].Float())
	case ir.OpFDiv:
		m.Counts.Flops++
		fr.vals[in] = m.roundFloat(in.Ty, ops[0].Float()/ops[1].Float())

	case ir.OpAlloca:
		size := in.Ty.Elem.Size() * max(in.AllocaCount, 1)
		fr.vals[in] = PtrValue(Pointer{Buf: NewBuffer("%"+in.Ident, size)})

	case ir.OpLoad:
		m.Counts.Loads++
		m.Counts.LoadBytes += int64(in.Ty.Size())
		p := ops[0].Ptr()
		if p.Buf == nil {
			return fmt.Errorf("interp: load through null pointer at %%%s", in.Ident)
		}
		if in.Ty.IsPointer() {
			v, err := m.loadPtr(p)
			if err != nil {
				return err
			}
			fr.vals[in] = v
			return nil
		}
		v, err := p.Buf.load(p.Off, in.Ty)
		if err != nil {
			return err
		}
		fr.vals[in] = v

	case ir.OpStore:
		m.Counts.Stores++
		ty := in.Ops[0].Type()
		m.Counts.StoreBytes += int64(ty.Size())
		p := ops[1].Ptr()
		if p.Buf == nil {
			return fmt.Errorf("interp: store through null pointer at %%%s", in.Ident)
		}
		if ty.IsPointer() {
			return m.storePtr(p, ops[0])
		}
		return p.Buf.store(p.Off, ty, ops[0])

	case ir.OpGEP:
		m.Counts.IntOps++
		p := ops[0].Ptr()
		elem := int64(in.Ty.Elem.Size())
		fr.vals[in] = PtrValue(Pointer{Buf: p.Buf, Off: p.Off + ops[1].Int()*elem})

	case ir.OpICmp:
		m.Counts.IntOps++
		fr.vals[in] = IntValue(boolToInt(cmpInt(in.Pred, ops[0], ops[1])))
	case ir.OpFCmp:
		m.Counts.IntOps++
		fr.vals[in] = IntValue(boolToInt(cmpFloat(in.Pred, ops[0].Float(), ops[1].Float())))

	case ir.OpSelect:
		m.Counts.IntOps++
		if ops[0].Bool() {
			fr.vals[in] = ops[1]
		} else {
			fr.vals[in] = ops[2]
		}

	case ir.OpSExt, ir.OpZExt:
		m.Counts.IntOps++
		fr.vals[in] = IntValue(wrapInt(in.Ty, ops[0].Int()))
	case ir.OpTrunc:
		m.Counts.IntOps++
		fr.vals[in] = IntValue(wrapInt(in.Ty, ops[0].Int()))
	case ir.OpSIToFP:
		m.Counts.IntOps++
		fr.vals[in] = m.roundFloat(in.Ty, float64(ops[0].Int()))
	case ir.OpFPToSI:
		m.Counts.IntOps++
		fr.vals[in] = IntValue(wrapInt(in.Ty, int64(ops[0].Float())))
	case ir.OpFPExt:
		m.Counts.IntOps++
		fr.vals[in] = FloatValue(ops[0].Float())
	case ir.OpFPTrunc:
		m.Counts.IntOps++
		fr.vals[in] = FloatValue(float64(float32(ops[0].Float())))
	case ir.OpBitcast:
		fr.vals[in] = ops[0]

	case ir.OpCall:
		m.Counts.Calls++
		callee := in.Ops[0]
		callArgs := ops[1:]
		switch c := callee.(type) {
		case *ir.Function:
			v, err := m.Exec(c, callArgs...)
			if err != nil {
				return err
			}
			fr.vals[in] = v
		case *ir.GlobalRef:
			ext, ok := m.Externs[c.Ident]
			if !ok {
				return fmt.Errorf("interp: call to unbound external @%s", c.Ident)
			}
			v, err := ext(m, callArgs)
			if err != nil {
				return err
			}
			fr.vals[in] = v
		default:
			return fmt.Errorf("interp: call through unsupported callee %T", callee)
		}

	case ir.OpSqrt:
		m.Counts.MathOps++
		fr.vals[in] = m.roundFloat(in.Ty, math.Sqrt(ops[0].Float()))
	case ir.OpFAbs:
		m.Counts.MathOps++
		fr.vals[in] = m.roundFloat(in.Ty, math.Abs(ops[0].Float()))
	case ir.OpExp:
		m.Counts.MathOps++
		fr.vals[in] = m.roundFloat(in.Ty, math.Exp(ops[0].Float()))
	case ir.OpLog:
		m.Counts.MathOps++
		fr.vals[in] = m.roundFloat(in.Ty, math.Log(ops[0].Float()))
	case ir.OpSin:
		m.Counts.MathOps++
		fr.vals[in] = m.roundFloat(in.Ty, math.Sin(ops[0].Float()))
	case ir.OpCos:
		m.Counts.MathOps++
		fr.vals[in] = m.roundFloat(in.Ty, math.Cos(ops[0].Float()))
	case ir.OpPow:
		m.Counts.MathOps++
		fr.vals[in] = m.roundFloat(in.Ty, math.Pow(ops[0].Float(), ops[1].Float()))
	case ir.OpFloor:
		m.Counts.MathOps++
		fr.vals[in] = m.roundFloat(in.Ty, math.Floor(ops[0].Float()))

	default:
		return fmt.Errorf("interp: unsupported opcode %s", in.Op)
	}
	return nil
}

// roundFloat narrows to float32 precision for float-typed results so the
// interpreter matches single-precision kernels bit-for-bit.
func (m *Machine) roundFloat(ty *ir.Type, v float64) Value {
	if ty.Kind == ir.KindFloat {
		return FloatValue(float64(float32(v)))
	}
	return FloatValue(v)
}

// loadPtr/storePtr implement pointer-in-memory via a handle table.
func (m *Machine) storePtr(p Pointer, v Value) error {
	handle := int64(len(m.ptrTable)) + 1
	m.ptrTable = append(m.ptrTable, v.Ptr())
	return p.Buf.store(p.Off, ir.Int64, IntValue(handle))
}

func (m *Machine) loadPtr(p Pointer) (Value, error) {
	hv, err := p.Buf.load(p.Off, ir.Int64)
	if err != nil {
		return Value{}, err
	}
	h := hv.Int()
	if h <= 0 || h > int64(len(m.ptrTable)) {
		return Value{}, fmt.Errorf("interp: invalid pointer handle %d", h)
	}
	return PtrValue(m.ptrTable[h-1]), nil
}

func wrapInt(ty *ir.Type, v int64) int64 {
	switch ty.Kind {
	case ir.KindBool:
		return v & 1
	case ir.KindInt32:
		return int64(int32(v))
	default:
		return v
	}
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func cmpInt(p ir.Predicate, a, b Value) bool {
	if a.IsPtr() || b.IsPtr() {
		switch p {
		case ir.PredEQ:
			return a.Ptr() == b.Ptr()
		case ir.PredNE:
			return a.Ptr() != b.Ptr()
		}
	}
	x, y := a.Int(), b.Int()
	switch p {
	case ir.PredEQ:
		return x == y
	case ir.PredNE:
		return x != y
	case ir.PredLT:
		return x < y
	case ir.PredLE:
		return x <= y
	case ir.PredGT:
		return x > y
	case ir.PredGE:
		return x >= y
	}
	return false
}

func cmpFloat(p ir.Predicate, x, y float64) bool {
	switch p {
	case ir.PredEQ:
		return x == y
	case ir.PredNE:
		return x != y
	case ir.PredLT:
		return x < y
	case ir.PredLE:
		return x <= y
	case ir.PredGT:
		return x > y
	case ir.PredGE:
		return x >= y
	}
	return false
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
