package constraint

import (
	"slices"

	"repro/internal/analysis"
	"repro/internal/idl"
	"repro/internal/ir"
)

// funcData is what a solver derives from the analysed function alone. Collect
// sub-solvers share their parent's.
type funcData struct {
	// domain is every value a variable may take: instructions, arguments
	// and constants appearing as operands.
	domain   []ir.Value
	byOpcode [][]ir.Value // instructions by opcode
	args     []ir.Value
	consts   []ir.Value
	typed    [2 * 4][]ir.Value // TypeIs candidates by type index and constant-zero flag, built on first use
	typedOK  [2 * 4]bool

	// ids number values for solution and collect keys. Every constant
	// operand is numbered up front, constants of equal type and payload
	// sharing a number; other values are numbered on first use.
	ids      map[ir.Value]int32
	constIDs map[string]int32 // by "type:payload"
	nextID   int32

	// marks and epoch deduplicate a disjunction's candidate union: a value
	// is in the union being built when marks[v] == epoch.
	marks map[ir.Value]uint32
	epoch uint32

	users         []*ir.Instruction // usersOf scratch for constants
	allowed, seen map[ir.Value]bool // evalOperandsFrom scratch
	stack         []ir.Value
}

func newFuncData(info *analysis.Info) *funcData {
	nargs := len(info.Fn.Args)
	f := &funcData{domain: make([]ir.Value, nargs, nargs+2*len(info.Instrs))}
	for i, arg := range info.Fn.Args {
		f.domain[i] = arg
	}
	f.args = f.domain[:nargs:nargs]
	var count []int
	f.ids, f.constIDs = map[ir.Value]int32{}, map[string]int32{}
	for _, in := range info.Instrs {
		if in.HasResult() {
			f.domain = append(f.domain, in)
		}
		for _, op := range in.Ops {
			if c, ok := op.(*ir.Const); ok {
				n := len(f.constIDs)
				if f.valueID(c); len(f.constIDs) > n { // a new type and payload
					f.domain = append(f.domain, c)
					f.consts = append(f.consts, c)
				}
			}
		}
		count = append(count, make([]int, max(0, int(in.Op)+1-len(count)))...)
		count[in.Op]++
	}
	// Instructions by opcode share one backing array, in function order.
	byOp := make([]ir.Value, len(info.Instrs))
	f.byOpcode = make([][]ir.Value, len(count))
	for op, n := range count {
		f.byOpcode[op], byOp = byOp[:0:n], byOp[n:]
	}
	// Terminators and stores are values too for constraint purposes (they
	// can be bound even though they produce no SSA result).
	for _, in := range info.Instrs {
		if !in.HasResult() {
			f.domain = append(f.domain, in)
		}
		f.byOpcode[in.Op] = append(f.byOpcode[in.Op], in)
	}
	return f
}

// valueID numbers v for keys: values are told apart by identity, the
// function's constants by type and payload.
func (f *funcData) valueID(v ir.Value) int32 {
	if id, ok := f.ids[v]; ok {
		return id
	}
	id := f.nextID
	if c, ok := v.(*ir.Const); ok {
		key := c.Ty.String() + ":" + c.Operand()
		if cid, seen := f.constIDs[key]; seen {
			id = cid
		} else {
			f.constIDs[key] = id
		}
	}
	if id == f.nextID {
		f.nextID++
	}
	f.ids[v] = id
	return id
}

// evalAtom evaluates an atomic predicate under the current assignment. When
// any referenced variable is unbound the result is triUnknown; list atomics
// only evaluate in the final phase.
func (s *Solver) evalAtom(t *atom, final bool) tribool {
	var buf [3]ir.Value
	vals := buf[:0]
	for _, slot := range t.args {
		v := s.assign[slot]
		if v == nil {
			return triUnknown
		}
		vals = append(vals, v)
	}
	switch t.Kind {
	case idl.AtomTypeIs:
		return boolToTri(evalTypeIs(t, vals[0]))
	case idl.AtomClassIs:
		return boolToTri(s.evalClassIs(t, vals[0]))
	case idl.AtomOpcodeIs:
		in, isInstr := vals[0].(*ir.Instruction)
		return boolToTri(isInstr && t.op != ir.OpInvalid && in.Op == t.op)
	case idl.AtomSameAs:
		same := sameValue(vals[0], vals[1])
		return boolToTri(same != t.Negated)
	case idl.AtomEdge:
		return boolToTri(s.evalEdge(t, vals[0], vals[1]))
	case idl.AtomArgOf:
		in, isInstr := vals[1].(*ir.Instruction)
		if !isInstr {
			return triFalse
		}
		op := in.OperandAt(t.ArgIndex)
		return boolToTri(op != nil && sameValue(op, vals[0]))
	case idl.AtomReachesPhi:
		return boolToTri(evalReachesPhi(vals[0], vals[1], vals[2]))
	case idl.AtomDominates:
		return boolToTri(s.evalDominates(t, vals[0], vals[1]))
	case idl.AtomPassesThrough:
		if !final {
			return triUnknown
		}
		return boolToTri(s.evalPassesThrough(t, vals[0], vals[1], vals[2]))
	case idl.AtomKilledBy:
		if !final {
			return triUnknown
		}
		return boolToTri(s.info.AllFlowKilledBy(
			s.expandList(t.lists[0], &s.lists[0]), s.expandList(t.lists[1], &s.lists[1]), s.expandList(t.lists[2], &s.lists[2])))
	case idl.AtomOperandsFrom:
		if !final {
			return triUnknown
		}
		return boolToTri(s.evalOperandsFrom(vals[0], t.lists[0], vals[1]))
	case idl.AtomNoOpcodeBelow:
		return boolToTri(s.evalNoOpcodeBelow(t, vals[0]))
	}
	return triFalse
}

func boolToTri(b bool) tribool {
	if b {
		return triTrue
	}
	return triFalse
}

func evalTypeIs(t *atom, v ir.Value) bool {
	ty := v.Type()
	if ty == nil {
		return false
	}
	okType := false
	switch t.class {
	case typeInteger:
		okType = ty.IsInteger()
	case typeFloat:
		okType = ty.IsFloat()
	case typePointer:
		okType = ty.IsPointer()
	}
	if !okType {
		return false
	}
	if t.ConstantZero {
		c, isConst := v.(*ir.Const)
		return isConst && c.IsZero()
	}
	return true
}

func (s *Solver) evalClassIs(t *atom, v ir.Value) bool {
	switch t.class {
	case classConstant:
		_, ok := v.(*ir.Const)
		return ok
	case classArgument:
		_, ok := v.(*ir.Argument)
		return ok
	case classInstruction:
		_, ok := v.(*ir.Instruction)
		return ok
	case classCompiletime:
		// Compile time values: constants and function arguments, which are
		// fixed for the duration of any detected region.
		switch v.(type) {
		case *ir.Const, *ir.Argument:
			return true
		}
		return false
	case classUnused:
		return len(s.usersOf(v)) == 0
	}
	return false
}

func (s *Solver) evalEdge(t *atom, x, y ir.Value) bool {
	xi, ok1 := x.(*ir.Instruction)
	yi, ok2 := y.(*ir.Instruction)
	switch {
	case !ok2:
		return false
	case t.Edge == idl.EdgeDataFlow:
		return slices.ContainsFunc(yi.Ops, func(op ir.Value) bool { return sameValue(op, x) })
	case !ok1:
		return false
	case t.Edge == idl.EdgeControlFlow:
		return s.info.HasControlFlowTo(xi, yi)
	case t.Edge == idl.EdgeControlDominance:
		return s.info.Dominates(xi, yi)
	case t.Edge == idl.EdgeDependence:
		return s.info.HasDependenceEdgeTo(xi, yi)
	}
	return false
}

func evalReachesPhi(v, phiV, fromV ir.Value) bool {
	phi, ok := phiV.(*ir.Instruction)
	if !ok || phi.Op != ir.OpPhi {
		return false
	}
	from, ok := fromV.(*ir.Instruction)
	if !ok || from.Op != ir.OpBr {
		return false
	}
	for i, ib := range phi.Incoming {
		if ib.Terminator() == from && sameValue(phi.Ops[i], v) {
			return true
		}
	}
	return false
}

func (s *Solver) evalDominates(t *atom, x, y ir.Value) bool {
	xi, ok1 := x.(*ir.Instruction)
	yi, ok2 := y.(*ir.Instruction)
	var res bool
	switch {
	case t.Flow == idl.FlowData:
		res = s.info.DataFlowDominates(x, y) && !(t.Strict && sameValue(x, y))
	case !ok1 || !ok2:
	case t.Post && t.Strict:
		res = s.info.StrictlyPostDominates(xi, yi)
	case t.Post:
		res = s.info.PostDominates(xi, yi)
	case t.Strict:
		res = s.info.StrictlyDominates(xi, yi)
	default:
		res = s.info.Dominates(xi, yi)
	}
	return res != t.Negated
}

func (s *Solver) evalPassesThrough(t *atom, from, to, via ir.Value) bool {
	if t.Flow == idl.FlowData {
		return s.info.AllDataFlowPassesThrough(from, to, via)
	}
	fi, ok1 := from.(*ir.Instruction)
	ti, ok2 := to.(*ir.Instruction)
	vi, ok3 := via.(*ir.Instruction)
	if !ok1 || !ok2 || !ok3 {
		return false
	}
	return s.info.AllControlFlowPassesThrough(fi, ti, vi)
}

// expandList resolves a varlist to values into *buf. A name that is not
// bound expands to every bound variable named name[k]... (array expansion
// for collected variables); names bound directly resolve to their value.
func (s *Solver) expandList(refs []listRef, buf *[]ir.Value) []ir.Value {
	out := (*buf)[:0]
	for _, r := range refs {
		if v := s.assign[r.slot]; v != nil {
			out = append(out, v)
			continue
		}
		for _, slot := range s.idx.syms.extending(r.prefix) {
			if v := slotValue(s.assign, slot); v != nil {
				out = append(out, v)
			}
		}
	}
	*buf = out
	return out
}

// evalNoOpcodeBelow checks that the region dominated by `begin` contains no
// instruction of the atom's opcode (begin itself included).
func (s *Solver) evalNoOpcodeBelow(t *atom, begin ir.Value) bool {
	bi, isInstr := begin.(*ir.Instruction)
	if t.op == ir.OpInvalid || !isInstr {
		return false
	}
	for _, in := range s.info.Instrs {
		if in.Op == t.op && s.info.Dominates(bi, in) {
			return false
		}
	}
	return true
}

// evalOperandsFrom implements the kernel-function data-flow closure: walking
// backwards over operands from v, every path must terminate at a member of
// the list, a constant, an argument, or a value defined outside the region
// that begins at `begin` (a loop-invariant input). Inside the region only
// pure computation is allowed: loads, stores and calls fail the check.
func (s *Solver) evalOperandsFrom(v ir.Value, list []listRef, begin ir.Value) bool {
	f := s.fn
	if f.allowed == nil {
		f.allowed, f.seen = map[ir.Value]bool{}, map[ir.Value]bool{}
	}
	clear(f.allowed)
	clear(f.seen)
	for _, av := range s.expandList(list, &s.lists[0]) {
		f.allowed[av] = true
	}
	beginInstr, _ := begin.(*ir.Instruction)

	f.seen[v] = true
	stack := append(f.stack[:0], v)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.allowed[cur] {
			continue
		}
		in, isInstr := cur.(*ir.Instruction)
		if !isInstr {
			continue // constants and arguments are always permitted inputs
		}
		if cur != v && beginInstr != nil && !s.info.StrictlyDominates(beginInstr, in) {
			continue // defined outside the region: loop-invariant input
		}
		switch in.Op {
		case ir.OpLoad, ir.OpStore, ir.OpCall, ir.OpAlloca:
			f.stack = stack
			return false // impure inside the kernel region
		}
		for _, op := range in.Ops {
			if !f.seen[op] {
				f.seen[op] = true
				stack = append(stack, op)
			}
		}
	}
	f.stack = stack
	return true
}

// --- candidate generation ---

// candidates derives a sound candidate set for variable vid from the
// subformula at node id: any satisfying assignment must draw the variable
// from the returned set. AND nodes may use any child's set (the tightest is
// chosen); OR nodes unite the sets of their kids that are not already false,
// and need each of those to produce one. Sets are built in the arena or
// shared read-only with the function's tables. A subtree that does not
// mention the variable yields no set, so it is skipped unvisited.
//
// The rule for OR reads the maintained node values, which are current here:
// step derives candidates only after a bind that left the root not false,
// and a bind that turned it false has been undone before the next one.
// Three-valued evaluation is monotone, so a kid that is false now stays false
// under every extension of the assignment, and a solution satisfies the OR
// through one of the kids still alive. The recursion only ever reaches nodes
// that are not false (the root is not, nor is any kid of an AND that is not,
// and an OR passes only its live kids down), so an empty disjunction, which
// is false, is never visited.
func (s *Solver) candidates(id, vid int) ([]ir.Value, bool) {
	n := &s.idx.nodes[id]
	if !s.idx.varIn[id][vid] {
		return nil, false
	}
	switch n.kind {
	case kAnd:
		var best []ir.Value
		found := false
		for _, kid := range n.kids {
			if set, ok := s.candidates(kid, vid); ok {
				if !found || len(set) < len(best) {
					best = set
					found = true
				}
			}
		}
		return best, found
	case kOr:
		base := len(s.sets)
		for _, kid := range n.kids {
			if s.value(kid) == triFalse {
				continue
			}
			set, ok := s.candidates(kid, vid)
			if !ok {
				s.sets = s.sets[:base]
				return nil, false
			}
			s.sets = append(s.sets, set)
		}
		start, f := len(s.arena), s.fn
		if f.marks == nil {
			f.marks = map[ir.Value]uint32{}
		}
		if f.epoch++; f.epoch == 0 { // wrapped: forget every old mark
			clear(f.marks)
			f.epoch = 1
		}
		for _, set := range s.sets[base:] {
			for _, c := range set {
				if f.marks[c] != f.epoch {
					f.marks[c] = f.epoch
					s.arena = append(s.arena, c)
				}
			}
		}
		s.sets = s.sets[:base]
		return s.seal(start), true
	case kAtom:
		return s.atomCandidates(n.atom, s.idx.vars[vid])
	}
	return nil, false
}

// seal returns the set appended to the arena since start, capped so that
// later appends cannot write into it.
func (s *Solver) seal(start int) []ir.Value {
	return s.arena[start:len(s.arena):len(s.arena)]
}

func (s *Solver) atomCandidates(t *atom, slot int) ([]ir.Value, bool) {
	pos := slices.Index(t.args, slot)
	if pos < 0 {
		return nil, false
	}
	val := func(i int) ir.Value { return s.assign[t.args[i]] }
	start := len(s.arena)
	switch t.Kind {
	case idl.AtomOpcodeIs:
		if int(t.op) >= len(s.fn.byOpcode) {
			return nil, true // unknown opcode or none in the function: empty set
		}
		return s.fn.byOpcode[t.op], true

	case idl.AtomClassIs:
		switch t.class {
		case classArgument:
			return s.fn.args, true
		case classConstant:
			return s.fn.consts, true
		}
		return nil, false

	case idl.AtomTypeIs:
		f, i := s.fn, 2*t.class
		if t.ConstantZero {
			i++
		}
		if !f.typedOK[i] {
			for _, d := range f.domain {
				if evalTypeIs(t, d) {
					f.typed[i] = append(f.typed[i], d)
				}
			}
			f.typedOK[i] = true
		}
		return f.typed[i], true

	case idl.AtomSameAs:
		if t.Negated {
			return nil, false
		}
		if x := val(1 - pos); x != nil {
			s.arena = append(s.arena, x)
			return s.seal(start), true
		}
		return nil, false

	case idl.AtomArgOf:
		// Args[0] is the operand, Args[1] the instruction.
		if pos == 0 {
			if y := val(1); y != nil {
				if yi, isInstr := y.(*ir.Instruction); isInstr {
					if op := yi.OperandAt(t.ArgIndex); op != nil {
						s.arena = append(s.arena, op)
						return s.seal(start), true
					}
				}
				return nil, true
			}
			return nil, false
		}
		if x := val(0); x != nil {
			for _, u := range s.usersOf(x) {
				if op := u.OperandAt(t.ArgIndex); op != nil && sameValue(op, x) {
					s.arena = append(s.arena, u)
				}
			}
			return s.seal(start), true
		}
		return nil, false

	case idl.AtomEdge:
		x := val(1 - pos)
		if x == nil {
			return nil, false
		}
		switch t.Edge {
		case idl.EdgeDataFlow:
			if pos == 1 { // v is the user
				for _, u := range s.usersOf(x) {
					s.arena = append(s.arena, u)
				}
				return s.seal(start), true
			}
			if xi, isInstr := x.(*ir.Instruction); isInstr { // v is an operand of x
				return xi.Ops, true
			}
			return nil, true
		case idl.EdgeControlFlow:
			xi, isInstr := x.(*ir.Instruction)
			if !isInstr {
				return nil, true
			}
			if pos == 1 {
				s.arena = s.info.Successors(s.arena, xi)
			} else {
				s.arena = s.info.Predecessors(s.arena, xi)
			}
			return s.seal(start), true
		default:
			return nil, false
		}

	case idl.AtomReachesPhi:
		// Args: value, phi, from-branch.
		phiV := val(1)
		phi, isPhi := phiV.(*ir.Instruction)
		isPhi = isPhi && phi.Op == ir.OpPhi
		switch pos {
		case 0:
			if phiV == nil {
				return nil, false
			}
			if isPhi {
				return phi.Ops, true
			}
			return nil, true
		case 1:
			x := val(0)
			if x == nil {
				return nil, false
			}
			// Values reaching phis include constants, which have no
			// tracked users; every phi is a candidate then.
			if _, isConst := x.(*ir.Const); isConst {
				if int(ir.OpPhi) < len(s.fn.byOpcode) {
					return s.fn.byOpcode[ir.OpPhi], true
				}
				return nil, true
			}
			for _, u := range s.usersOf(x) {
				if u.Op == ir.OpPhi {
					s.arena = append(s.arena, u)
				}
			}
			return s.seal(start), true
		case 2:
			if phiV == nil {
				return nil, false
			}
			if !isPhi {
				return nil, true
			}
			for _, ib := range phi.Incoming {
				if term := ib.Terminator(); term != nil {
					s.arena = append(s.arena, term)
				}
			}
			return s.seal(start), true
		}
	}
	return nil, false
}

// usersOf returns instructions using x; constants are matched semantically.
// The result is shared or scratch: it is valid until the next call.
func (s *Solver) usersOf(x ir.Value) []*ir.Instruction {
	if _, isConst := x.(*ir.Const); !isConst {
		return s.info.Users(x)
	}
	out := s.fn.users[:0]
	for _, in := range s.info.Instrs {
		for _, op := range in.Ops {
			if sameValue(op, x) {
				out = append(out, in)
				break
			}
		}
	}
	s.fn.users = out
	return out
}
