// Package similarity is a cheap structural scorer beside the constraint
// solver: a per-function feature vector (opcode histogram, loop nest,
// memory-access shape, accumulator patterns) scored against per-idiom
// signatures derived from the compiled constraint problems themselves.
//
// The scores feed the explain-mode near-miss diagnostics only: detection
// solves every (function × idiom) pair whatever its score. A score of 0
// means the signature's *necessary conditions* are provably violated (a
// required opcode is absent from the function); everything beyond the
// necessary conditions is heuristic.
package similarity

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/constraint"
	"repro/internal/idl"
	"repro/internal/ir"
)

// Features is the per-function structural feature vector. Extraction is a
// single pass over an analysed function plus the loop-structure queries —
// orders of magnitude cheaper than one backtracking solve.
type Features struct {
	// Instrs is the instruction count; Opcodes the per-opcode histogram.
	Instrs  int
	Opcodes map[ir.Opcode]int
	// Loops counts natural loops; LoopDepth is the maximum nest depth;
	// ConstTrips counts loop-ish comparisons against compile-time constants
	// (a proxy for statically-counted trip structure).
	Loops      int
	LoopDepth  int
	ConstTrips int
	// MemBases counts distinct base pointers among loads and stores;
	// IndirectMem counts loads/stores whose address chain passes through
	// another load (the gather shape of sparse kernels).
	MemBases    int
	IndirectMem int
	// Accumulators counts phi nodes fed by arithmetic over themselves — the
	// reduction/accumulator pattern.
	Accumulators int
	// Calls and Branches are plain opcode counts, broken out because they
	// shape kernel outlining and control complexity.
	Calls, Branches int
}

// Extract computes the feature vector of one analysed function.
func Extract(info *analysis.Info) *Features {
	f := &Features{
		Instrs:  len(info.Instrs),
		Opcodes: make(map[ir.Opcode]int, 16),
	}
	bases := map[ir.Value]bool{}
	for _, in := range info.Instrs {
		f.Opcodes[in.Op]++
		switch in.Op {
		case ir.OpCall:
			f.Calls++
		case ir.OpBr:
			f.Branches++
		case ir.OpICmp:
			for _, op := range in.Ops {
				if _, isConst := op.(*ir.Const); isConst {
					f.ConstTrips++
					break
				}
			}
		case ir.OpPhi:
			if isAccumulator(in) {
				f.Accumulators++
			}
		case ir.OpLoad:
			if len(in.Ops) > 0 {
				bases[info.BasePointer(in.Ops[0])] = true
				if indirectAddress(in.Ops[0], 0) {
					f.IndirectMem++
				}
			}
		case ir.OpStore:
			if len(in.Ops) > 1 {
				bases[info.BasePointer(in.Ops[1])] = true
				if indirectAddress(in.Ops[1], 0) {
					f.IndirectMem++
				}
			}
		}
	}
	f.MemBases = len(bases)
	f.Loops = len(info.LoopHeaders())
	f.LoopDepth = info.LoopDepth()
	return f
}

// isAccumulator reports whether phi is fed by an arithmetic instruction that
// (within a short operand walk) consumes the phi itself — the canonical
// `acc = acc ⊕ x` reduction cycle.
func isAccumulator(phi *ir.Instruction) bool {
	for _, in := range phi.Ops {
		op, ok := in.(*ir.Instruction)
		if !ok || !arithmetic(op.Op) {
			continue
		}
		if reachesValue(op, phi, 3) {
			return true
		}
	}
	return false
}

func arithmetic(op ir.Opcode) bool {
	switch op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpSDiv:
		return true
	}
	return false
}

// reachesValue walks in's operands up to depth levels looking for target.
func reachesValue(in *ir.Instruction, target ir.Value, depth int) bool {
	if depth < 0 {
		return false
	}
	for _, op := range in.Ops {
		if op == target {
			return true
		}
		if oi, ok := op.(*ir.Instruction); ok && reachesValue(oi, target, depth-1) {
			return true
		}
	}
	return false
}

// indirectAddress reports whether an address value's GEP-index chain passes
// through a load — x[idx[i]] style gathers.
func indirectAddress(addr ir.Value, depth int) bool {
	if depth > 4 {
		return false
	}
	in, ok := addr.(*ir.Instruction)
	if !ok {
		return false
	}
	switch in.Op {
	case ir.OpGEP:
		if len(in.Ops) > 1 {
			return loadDerived(in.Ops[1], 0)
		}
	case ir.OpSExt, ir.OpZExt, ir.OpBitcast:
		if len(in.Ops) > 0 {
			return indirectAddress(in.Ops[0], depth+1)
		}
	}
	return false
}

// loadDerived reports whether v is (a cast/arithmetic chain over) a load.
func loadDerived(v ir.Value, depth int) bool {
	if depth > 4 {
		return false
	}
	in, ok := v.(*ir.Instruction)
	if !ok {
		return false
	}
	if in.Op == ir.OpLoad {
		return true
	}
	for _, op := range in.Ops {
		if loadDerived(op, depth+1) {
			return true
		}
	}
	return false
}

// Signature is the per-idiom similarity key, compiled once from the idiom's
// flattened constraint problem (built-in roster at engine construction,
// packs at registration — signatures live on the immutable versioned Pack
// snapshot exactly like the compiled problems, so a re-registration swaps
// them atomically and mid-flight requests keep the snapshot they resolved).
type Signature struct {
	// Idiom is the owning idiom's name (diagnostics label).
	Idiom string
	// Required are opcodes every solution provably contains: each comes from
	// an `is <opcode> instruction` atom holding in ALL disjuncts of the
	// formula, so a function whose histogram lacks one cannot match. This is
	// the only field pruning is allowed to act on.
	Required []ir.Opcode
	// Demand is the heuristic per-opcode variable demand (how many distinct
	// formula variables want each opcode, counted across all branches). Used
	// for scoring and near-miss deltas only.
	Demand map[ir.Opcode]int
	// Guards approximates the loop-nest depth the formula encodes: the
	// number of distinct loop-guard variables ({guard}, loop[k].guard, ...)
	// carrying a branch-opcode constraint. Scoring/diagnostics only.
	Guards int
	// Vars is the problem's solver variable count (a size hint).
	Vars int
}

// Compile derives the signature of one compiled constraint problem.
func Compile(idiom string, prob *constraint.Problem) *Signature {
	sg := &Signature{Idiom: idiom, Demand: map[ir.Opcode]int{}, Vars: len(prob.Vars)}

	// Required: the opcode set implied by every disjunct. AND unions child
	// requirements, OR intersects them, collect bodies contribute nothing
	// (their minimum may be zero), negated atoms contribute nothing.
	req := requiredOps(prob.Root)
	for op := range req {
		sg.Required = append(sg.Required, op)
	}
	sort.Slice(sg.Required, func(i, j int) bool { return sg.Required[i] < sg.Required[j] })

	// Demand: variables whose opcode constraint holds in every disjunct
	// (AND unions, OR intersects — the same logic as requiredOps, kept per
	// variable), so alternatives that only one OR branch wants don't inflate
	// the counts. Distinct variables may still alias one instruction in a
	// real solution, which is why demand only ever shapes scores and
	// diagnostics, never skipping.
	for _, op := range requiredVarOps(prob.Root) {
		sg.Demand[op]++
	}

	// Guard count: any loop-guard variable anywhere in the formula (branch
	// guards of optional alternatives still indicate nesting intent).
	guards := map[string]bool{}
	walkAtoms(prob.Root, func(at *constraint.NAtom) {
		if at.Kind != idl.AtomOpcodeIs || at.Negated || len(at.Args) == 0 {
			return
		}
		if op, ok := constraint.OpcodeByName(at.Opcode); ok && op == ir.OpBr {
			if v := at.Args[0]; v == "guard" || strings.HasSuffix(v, ".guard") {
				guards[v] = true
			}
		}
	})
	sg.Guards = len(guards)
	return sg
}

// requiredVarOps computes the (variable → opcode) constraints holding in
// every disjunct of a formula node: AND unions child maps, OR keeps only
// variables every child constrains to the same opcode.
func requiredVarOps(n constraint.Node) map[string]ir.Opcode {
	switch t := n.(type) {
	case *constraint.NAnd:
		out := map[string]ir.Opcode{}
		for _, k := range t.Kids {
			for v, op := range requiredVarOps(k) {
				out[v] = op
			}
		}
		return out
	case *constraint.NOr:
		var out map[string]ir.Opcode
		for _, k := range t.Kids {
			kr := requiredVarOps(k)
			if out == nil {
				out = kr
				continue
			}
			for v, op := range out {
				if kop, ok := kr[v]; !ok || kop != op {
					delete(out, v)
				}
			}
		}
		if out == nil {
			out = map[string]ir.Opcode{}
		}
		return out
	case *constraint.NAtom:
		if t.Kind == idl.AtomOpcodeIs && !t.Negated && len(t.Args) > 0 {
			if op, ok := constraint.OpcodeByName(t.Opcode); ok {
				return map[string]ir.Opcode{t.Args[0]: op}
			}
		}
	}
	return map[string]ir.Opcode{}
}

// requiredOps computes the sound necessary-condition opcode set of a formula
// node: opcodes such that any satisfying assignment implies the function
// contains at least one instruction with that opcode.
func requiredOps(n constraint.Node) map[ir.Opcode]bool {
	switch t := n.(type) {
	case *constraint.NAnd:
		out := map[ir.Opcode]bool{}
		for _, k := range t.Kids {
			for op := range requiredOps(k) {
				out[op] = true
			}
		}
		return out
	case *constraint.NOr:
		var out map[ir.Opcode]bool
		for _, k := range t.Kids {
			kr := requiredOps(k)
			if out == nil {
				out = kr
				continue
			}
			for op := range out {
				if !kr[op] {
					delete(out, op)
				}
			}
		}
		if out == nil {
			out = map[ir.Opcode]bool{}
		}
		return out
	case *constraint.NAtom:
		if t.Kind == idl.AtomOpcodeIs && !t.Negated {
			if op, ok := constraint.OpcodeByName(t.Opcode); ok {
				return map[ir.Opcode]bool{op: true}
			}
		}
	}
	// NCollect (minimum may be zero) and non-opcode atoms: no requirement.
	return map[ir.Opcode]bool{}
}

func walkAtoms(n constraint.Node, f func(*constraint.NAtom)) {
	switch t := n.(type) {
	case *constraint.NAnd:
		for _, k := range t.Kids {
			walkAtoms(k, f)
		}
	case *constraint.NOr:
		for _, k := range t.Kids {
			walkAtoms(k, f)
		}
	case *constraint.NAtom:
		f(t)
	}
}

// Missing returns the required opcodes absent from f — non-empty means the
// pair is provably unmatchable and safe to skip.
func (sg *Signature) Missing(f *Features) []ir.Opcode {
	if sg == nil || f == nil {
		return nil
	}
	var out []ir.Opcode
	for _, op := range sg.Required {
		if f.Opcodes[op] == 0 {
			out = append(out, op)
		}
	}
	return out
}

// Score rates a function's features against the signature in [0, 1]. Exactly
// 0 means provably impossible (a required opcode is absent); everything else
// blends opcode-demand coverage with loop-depth coverage. A nil signature
// (or nil features) scores 1: no information never causes deprioritization.
func (sg *Signature) Score(f *Features) float64 {
	if sg == nil || f == nil {
		return 1
	}
	if len(sg.Missing(f)) > 0 {
		return 0
	}
	cov := 1.0
	if len(sg.Demand) > 0 {
		// Accumulate in sorted opcode order: map iteration order would vary
		// the float summation order and with it the last ulp of the score,
		// which must be bit-for-bit reproducible (golden files pin it).
		ops := make([]ir.Opcode, 0, len(sg.Demand))
		for op := range sg.Demand {
			ops = append(ops, op)
		}
		sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
		sum := 0.0
		for _, op := range ops {
			r := float64(f.Opcodes[op]) / float64(sg.Demand[op])
			if r > 1 {
				r = 1
			}
			sum += r
		}
		cov = sum / float64(len(sg.Demand))
	}
	loop := 1.0
	if sg.Guards > 0 {
		loop = float64(f.LoopDepth) / float64(sg.Guards)
		if loop > 1 {
			loop = 1
		}
	}
	score := 0.7*cov + 0.3*loop
	if score <= 0 {
		// Reserve 0 for "provably impossible": a heuristically hopeless but
		// not disproven pair must stay strictly positive so a near miss never
		// calls it impossible.
		score = 0.001
	}
	return score
}

// Explain reports the dominant feature deltas between f and the signature,
// largest deficit first, plus the constraint family that rejects the pair:
// "opcode" (instruction mix can't supply the formula's demands),
// "control-flow" (loop nest shallower than the idiom's), or "dataflow" (the
// cheap structure all matches — the backtracking search itself rejected it).
func (sg *Signature) Explain(f *Features) (deltas []string, family string) {
	if sg == nil || f == nil {
		return nil, "dataflow"
	}
	for _, op := range sg.Missing(f) {
		deltas = append(deltas, fmt.Sprintf("missing required opcode %s", op))
		family = "opcode"
	}
	if family != "" {
		return deltas, family
	}
	type deficit struct {
		op         ir.Opcode
		have, need int
	}
	var defs []deficit
	for op, need := range sg.Demand {
		if have := f.Opcodes[op]; have < need {
			defs = append(defs, deficit{op, have, need})
		}
	}
	sort.Slice(defs, func(i, j int) bool {
		di, dj := defs[i].need-defs[i].have, defs[j].need-defs[j].have
		if di != dj {
			return di > dj
		}
		return defs[i].op < defs[j].op
	})
	for _, d := range defs {
		deltas = append(deltas, fmt.Sprintf("opcode %s: have %d, formula wants %d", d.op, d.have, d.need))
		// Only a zero count decides the family: distinct formula variables may
		// alias one instruction in a real solution, so "fewer than demanded"
		// is weak evidence while "none at all" is strong.
		if d.have == 0 {
			family = "opcode"
		}
	}
	if sg.Guards > f.LoopDepth {
		deltas = append(deltas, fmt.Sprintf("loop depth %d, idiom nests %d loops", f.LoopDepth, sg.Guards))
		if family == "" {
			family = "control-flow"
		}
	}
	if family == "" {
		family = "dataflow"
		if len(deltas) == 0 {
			deltas = append(deltas, "structure compatible; rejected during constraint solving")
		}
	}
	return deltas, family
}
