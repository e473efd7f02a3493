// Package idl implements the Idiom Description Language of the paper: a
// constraint language over SSA IR in which computational idioms are
// specified and then detected by a constraint solver.
//
// The grammar follows the paper's Figure 7 BNF, including the extensions the
// paper's own examples rely on:
//
//   - "post dominates" variants (used by the SESE specification, Fig. 9);
//   - optional count on collect (Fig. 11 writes `collect i (...)`);
//   - phi/fcmp/cast opcodes in opcode atomics;
//   - an "all operands of {v} come from {list} below {w}" atomic used to
//     express well-behaved kernel functions (the paper's KernelFunction
//     building block is not printed in the paper; this atomic provides the
//     data-flow closure check it needs).
package idl

import (
	"fmt"
	"strings"
)

// CalcTerm is one signed term of a calculation: either a parameter name or
// an integer literal.
type CalcTerm struct {
	Neg  bool
	Name string // parameter reference when non-empty
	Num  int
}

// Calc is a linear integer calculation: t0 ± t1 ± t2 ...
type Calc []CalcTerm

// Eval evaluates the calculation under the parameter environment.
func (c Calc) Eval(env map[string]int) (int, error) {
	out := 0
	for _, t := range c {
		v := t.Num
		if t.Name != "" {
			bound, ok := env[t.Name]
			if !ok {
				return 0, fmt.Errorf("idl: unbound parameter %q in calculation", t.Name)
			}
			v = bound
		}
		if t.Neg {
			out -= v
		} else {
			out += v
		}
	}
	return out, nil
}

// String renders the calculation.
func (c Calc) String() string {
	var b strings.Builder
	for i, t := range c {
		if i > 0 || t.Neg {
			if t.Neg {
				b.WriteString("-")
			} else {
				b.WriteString("+")
			}
		}
		if t.Name != "" {
			b.WriteString(t.Name)
		} else {
			fmt.Fprintf(&b, "%d", t.Num)
		}
	}
	return b.String()
}

// ConstCalc builds a constant calculation.
func ConstCalc(n int) Calc { return Calc{{Num: n}} }

// VarPart is one dotted segment of a variable, optionally indexed:
// "read" + index in "read[i].value".
type VarPart struct {
	Text string
	// Index is non-nil for an indexed segment; RangeEnd is non-nil for a
	// range segment (varmulti) "x[a..b]".
	Index    Calc
	RangeEnd Calc
}

// Var is a hierarchical variable reference such as {inner.iter_begin} or
// {read[i].value}.
type Var struct {
	Parts []VarPart
}

// String renders the variable without braces.
func (v Var) String() string {
	var b strings.Builder
	for i, p := range v.Parts {
		if i > 0 {
			b.WriteString(".")
		}
		b.WriteString(p.Text)
		if p.Index != nil {
			b.WriteString("[")
			b.WriteString(p.Index.String())
			if p.RangeEnd != nil {
				b.WriteString("..")
				b.WriteString(p.RangeEnd.String())
			}
			b.WriteString("]")
		}
	}
	return b.String()
}

// --- Constraint tree ---

// Constraint is a node in the IDL constraint tree.
type Constraint interface{ constraintNode() }

// AtomicKind identifies which atomic predicate an Atomic encodes.
type AtomicKind int

// Atomic predicate kinds (paper Fig. 7 atomic productions).
const (
	// AtomTypeIs: {v} is integer|float|pointer [constant zero]
	AtomTypeIs AtomicKind = iota
	// AtomClassIs: {v} is unused | a constant | a compile time value |
	// an argument | an instruction
	AtomClassIs
	// AtomOpcodeIs: {v} is <opcode> instruction
	AtomOpcodeIs
	// AtomSameAs: {v} is [not] the same as {w}
	AtomSameAs
	// AtomEdge: {v} has data flow|control flow|control dominance|dependence
	// edge to {w}
	AtomEdge
	// AtomArgOf: {v} is first|second|third|fourth argument of {w}
	AtomArgOf
	// AtomReachesPhi: {v} reaches phi node {w} from {u}
	AtomReachesPhi
	// AtomDominates: {v} [does not] [strictly] [data flow|control flow]
	// [post] dominates {w}
	AtomDominates
	// AtomPassesThrough: all [data|control] flow from {v} to {w} passes
	// through {u}
	AtomPassesThrough
	// AtomKilledBy: all flow from {list} to {list} is killed by {list}
	AtomKilledBy
	// AtomOperandsFrom: all operands of {v} come from {list} below {w}
	AtomOperandsFrom
	// AtomNoOpcodeBelow: no <opcode> instruction below {v}. Like
	// AtomOperandsFrom this is a documented extension beyond the paper's
	// Figure 7: it demands that the region dominated by {v} contains no
	// instruction of the given opcode, which makes idioms like Reduction
	// reject loops with memory side effects (prefix scans, queue pushes)
	// whose replacement by a pure API call would be unsound.
	AtomNoOpcodeBelow
)

// EdgeKind distinguishes the "has ... to" atomics.
type EdgeKind int

// Edge kinds.
const (
	EdgeDataFlow EdgeKind = iota
	EdgeControlFlow
	EdgeControlDominance
	EdgeDependence
)

// FlowKind distinguishes flavours of dominance / passes-through.
type FlowKind int

// Flow kinds.
const (
	FlowAny FlowKind = iota
	FlowData
	FlowControl
)

// Atomic is a leaf predicate.
type Atomic struct {
	Kind AtomicKind

	// Vars holds the variable operands in order of appearance.
	Vars []Var
	// Lists holds varlist operands for AtomKilledBy / AtomOperandsFrom.
	Lists [][]Var

	// TypeName is integer/float/pointer for AtomTypeIs.
	TypeName string
	// ConstantZero marks "... constant zero".
	ConstantZero bool
	// ClassName for AtomClassIs: unused/constant/compiletime/argument/instruction.
	ClassName string
	// Opcode for AtomOpcodeIs (IDL spelling, e.g. "gep", "branch").
	Opcode string
	// Negated marks "is not the same as" / "does not ... dominate".
	Negated bool
	// Strict marks "strictly dominates".
	Strict bool
	// Post marks "post dominates".
	Post bool
	// Flow qualifies dominance and passes-through atomics.
	Flow FlowKind
	// Edge qualifies AtomEdge.
	Edge EdgeKind
	// ArgIndex is 0-based for AtomArgOf.
	ArgIndex int
}

// And is a conjunction of constraints.
type And struct{ List []Constraint }

// Or is a disjunction of constraints.
type Or struct{ List []Constraint }

// Inherit inserts another idiom specification, with optional integer
// parameter bindings (e.g. ForNest(N=3)).
type Inherit struct {
	Name string
	Args []InheritArg
}

// InheritArg is one parameter binding of an inheritance.
type InheritArg struct {
	Name string
	Calc Calc
}

// ForAll duplicates the body for each index value, conjoining the copies.
type ForAll struct {
	Idx      string
	From, To Calc // inclusive range From..To
	Body     Constraint
}

// ForSome duplicates the body for each index value, disjoining the copies.
type ForSome struct {
	Idx      string
	From, To Calc
	Body     Constraint
}

// ForOne binds an index name to a single value in the body.
type ForOne struct {
	Idx  string
	Val  Calc
	Body Constraint
}

// If selects between two constraints by comparing calculations.
type If struct {
	L, R       Calc
	Then, Else Constraint
}

// RenamePair maps the inner variable name to the outer variable.
type RenamePair struct {
	Outer Var // replacement seen by the surrounding constraint
	Inner Var // name used inside the wrapped constraint
}

// Rename rewrites variable names of the wrapped constraint by dictionary;
// unmentioned variables keep their names.
type Rename struct {
	Base  Constraint
	Pairs []RenamePair
}

// Rebase rewrites dictionary names like Rename, but prefixes every other
// variable with the base variable's name.
type Rebase struct {
	Base  Constraint
	Pairs []RenamePair
	At    Var
}

// Collect captures all solutions of the body constraint, binding indexed
// copies of the body's variables (paper §3: "used to capture all possible
// solutions of a given constraint", the logical ∀).
type Collect struct {
	Idx  string
	Max  int // 0 = unbounded
	Body Constraint
}

func (*Atomic) constraintNode()  {}
func (*And) constraintNode()     {}
func (*Or) constraintNode()      {}
func (*Inherit) constraintNode() {}
func (*ForAll) constraintNode()  {}
func (*ForSome) constraintNode() {}
func (*ForOne) constraintNode()  {}
func (*If) constraintNode()      {}
func (*Rename) constraintNode()  {}
func (*Rebase) constraintNode()  {}
func (*Collect) constraintNode() {}

// Spec is one named "Constraint ... End" specification.
type Spec struct {
	Name string
	Body Constraint
}

// Program is a set of specifications compiled together; inheritance resolves
// against this set.
type Program struct {
	Specs map[string]*Spec
	Order []string
	// Digest is the SHA-256 of the source text ParseProgram read, zero for a
	// program built or extended in code (constraint.Problem.ID digests it).
	Digest [32]byte
}

// NewProgram builds an empty program.
func NewProgram() *Program {
	return &Program{Specs: map[string]*Spec{}}
}

// Add registers a specification. The program no longer is the text it was
// parsed from, so Add clears Digest.
func (p *Program) Add(s *Spec) error {
	if _, dup := p.Specs[s.Name]; dup {
		return fmt.Errorf("idl: duplicate constraint %q", s.Name)
	}
	p.Digest = [32]byte{}
	p.Specs[s.Name] = s
	p.Order = append(p.Order, s.Name)
	return nil
}
