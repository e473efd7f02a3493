// Package constraint compiles IDL specifications into flat constraint
// problems and solves them against analysed IR functions with a
// backtracking search, following the paper's §4.4: "the compiler eliminates
// inheritance, forall, forsome, if, rename and rebase. They are replaced
// with the simpler conjunction and disjunction constructs. This also
// involves removing all parameterizations from the formula and flattening
// all variable names. Next, variables are collected and ordered to assist
// constraint solving."
package constraint

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/idl"
)

// Node is a flattened constraint formula node.
type Node interface{ node() }

// NAnd is a conjunction.
type NAnd struct{ Kids []Node }

// NOr is a disjunction.
type NOr struct{ Kids []Node }

// ListRef names a varlist member; a bare array name expands at evaluation
// time to every bound variable of the form name[k] or name[k].suffix.
type ListRef struct{ Name string }

// NAtom is a flattened atomic predicate. The fields mirror idl.Atomic with
// variable references resolved to flat names.
type NAtom struct {
	Kind  idl.AtomicKind
	Args  []string
	Lists [][]ListRef

	TypeName     string
	ConstantZero bool
	ClassName    string
	Opcode       string
	Negated      bool
	Strict       bool
	Post         bool
	Flow         idl.FlowKind
	Edge         idl.EdgeKind
	ArgIndex     int
}

// NCollect captures all solutions of an inner constraint template. Instances
// are produced on demand with distinct index values.
type NCollect struct {
	// Min is the minimum number of solutions required for the collect to
	// hold (the ⟨n⟩ of the BNF; 0 means no minimum).
	Min int
	// Instantiate flattens the body for a concrete index value.
	Instantiate func(j int) (Node, error)
}

func (*NAnd) node()     {}
func (*NOr) node()      {}
func (*NAtom) node()    {}
func (*NCollect) node() {}

// Problem is a compiled, flattened constraint problem ready for solving.
type Problem struct {
	Name string
	Root Node
	// Vars is the solving order of the regular (non-collect) variables.
	Vars []string
	// ID is the problem's identity, set by Compile from the IDL source text,
	// the top name and any non-default CompileOptions (see problemID).
	// Compilation and search are deterministic, so equal IDs solve every
	// function identically, whichever registration, restart or replica
	// compiled them; both memo tiers key on (ID, fingerprint). A zero ID (a
	// hand-built problem) is never memoized.
	ID [32]byte

	idxOnce sync.Once
	idx     *probIndex // the slot form, built by index
}

// Ordering selects the variable ordering strategy (ablation: the paper
// notes "the ordering impacts performance").
type Ordering int

const (
	// OrderGreedy orders variables so each has a candidate generator over
	// already-assigned variables where possible (default).
	OrderGreedy Ordering = iota
	// OrderAppearance uses first-appearance order in the formula.
	OrderAppearance
)

// CompileOptions configure compilation.
type CompileOptions struct {
	Ordering Ordering
	// Params binds top-level template parameters (e.g. N for ForNest).
	Params map[string]int
}

// Compile flattens the named specification within prog.
func Compile(prog *idl.Program, top string, opts CompileOptions) (*Problem, error) {
	spec, ok := prog.Specs[top]
	if !ok {
		return nil, fmt.Errorf("constraint: unknown constraint %q", top)
	}
	env := map[string]int{}
	for k, v := range opts.Params {
		env[k] = v
	}
	fl := &flattener{prog: prog}
	root, err := fl.flatten(spec.Body, env, identSubst, 0)
	if err != nil {
		return nil, fmt.Errorf("constraint: %s: %w", top, err)
	}
	var vars []string
	collectVars(root, map[string]bool{}, &vars)
	if len(vars) > maxVars {
		return nil, fmt.Errorf("constraint: %s: %d variables exceed the bound of %d", top, len(vars), maxVars)
	}
	p := &Problem{Name: top, Root: root, ID: problemID(prog.Digest, top, opts)}
	p.Vars = orderVariables(root, vars, opts.Ordering)
	return p, nil
}

// subst maps a flat inner variable name to its outer name.
type subst func(string) string

func identSubst(s string) string { return s }

type flattener struct {
	prog  *idl.Program
	nodes int // flatten calls so far, bounded by maxFlatNodes
}

const maxInheritDepth = 64

// maxFlatNodes bounds one flattened formula (or collect instance): the
// library's largest is a few hundred nodes; a tenant's huge range is not.
const maxFlatNodes = 1 << 16

// maxVars bounds a problem's solver variables. The greedy variable ordering
// is quadratic in their count, so the node bound alone lets one tenant
// constraint stall compilation; the library's largest problem (GEMM) has 69.
const maxVars = 256

func (fl *flattener) flatten(c idl.Constraint, env map[string]int, sb subst, depth int) (Node, error) {
	if depth > maxInheritDepth {
		return nil, fmt.Errorf("inheritance depth exceeds %d (cycle?)", maxInheritDepth)
	}
	if fl.nodes++; fl.nodes > maxFlatNodes {
		return nil, fmt.Errorf("flattened formula exceeds %d nodes", maxFlatNodes)
	}
	switch n := c.(type) {
	case *idl.And:
		out := &NAnd{}
		for _, k := range n.List {
			fk, err := fl.flatten(k, env, sb, depth)
			if err != nil {
				return nil, err
			}
			out.Kids = append(out.Kids, fk)
		}
		return out, nil

	case *idl.Or:
		out := &NOr{}
		for _, k := range n.List {
			fk, err := fl.flatten(k, env, sb, depth)
			if err != nil {
				return nil, err
			}
			out.Kids = append(out.Kids, fk)
		}
		return out, nil

	case *idl.Inherit:
		spec, ok := fl.prog.Specs[n.Name]
		if !ok {
			return nil, fmt.Errorf("inherits unknown constraint %q", n.Name)
		}
		newEnv := map[string]int{}
		for _, a := range n.Args {
			v, err := a.Calc.Eval(env)
			if err != nil {
				return nil, err
			}
			newEnv[a.Name] = v
		}
		return fl.flatten(spec.Body, newEnv, sb, depth+1)

	case *idl.ForAll, *idl.ForSome:
		var idx string
		var from, to idl.Calc
		var body idl.Constraint
		isAll := false
		if fa, ok := n.(*idl.ForAll); ok {
			idx, from, to, body, isAll = fa.Idx, fa.From, fa.To, fa.Body, true
		} else {
			fs := n.(*idl.ForSome)
			idx, from, to, body = fs.Idx, fs.From, fs.To, fs.Body
		}
		lo, err := from.Eval(env)
		if err != nil {
			return nil, err
		}
		hi, err := to.Eval(env)
		if err != nil {
			return nil, err
		}
		var kids []Node
		for i := lo; i <= hi; i++ {
			childEnv := cloneEnv(env)
			childEnv[idx] = i
			fk, err := fl.flatten(body, childEnv, sb, depth)
			if err != nil {
				return nil, err
			}
			kids = append(kids, fk)
		}
		if len(kids) == 0 {
			// Empty ranges hold vacuously for forall, fail for forsome.
			if isAll {
				return &NAnd{}, nil
			}
			return &NOr{}, nil
		}
		if isAll {
			return &NAnd{Kids: kids}, nil
		}
		return &NOr{Kids: kids}, nil

	case *idl.ForOne:
		v, err := n.Val.Eval(env)
		if err != nil {
			return nil, err
		}
		childEnv := cloneEnv(env)
		childEnv[n.Idx] = v
		return fl.flatten(n.Body, childEnv, sb, depth)

	case *idl.If:
		l, err := n.L.Eval(env)
		if err != nil {
			return nil, err
		}
		r, err := n.R.Eval(env)
		if err != nil {
			return nil, err
		}
		if l == r {
			return fl.flatten(n.Then, env, sb, depth)
		}
		return fl.flatten(n.Else, env, sb, depth)

	case *idl.Rename:
		inner, err := fl.renameSubst(n.Pairs, env, sb, "")
		if err != nil {
			return nil, err
		}
		return fl.flatten(n.Base, env, inner, depth)

	case *idl.Rebase:
		atFlat, err := flattenVar(n.At, env)
		if err != nil {
			return nil, err
		}
		prefix := sb(atFlat)
		inner, err := fl.renameSubst(n.Pairs, env, sb, prefix)
		if err != nil {
			return nil, err
		}
		return fl.flatten(n.Base, env, inner, depth)

	case *idl.Collect:
		// Capture env and substitution so instances flatten lazily, each
		// under its own size bound.
		envCopy, prog := cloneEnv(env), fl.prog
		return &NCollect{
			Min: n.Max,
			Instantiate: func(j int) (Node, error) {
				childEnv := cloneEnv(envCopy)
				childEnv[n.Idx] = j
				return (&flattener{prog: prog}).flatten(n.Body, childEnv, sb, depth)
			},
		}, nil

	case *idl.Atomic:
		return flattenAtomic(n, env, sb)
	}
	return nil, fmt.Errorf("unhandled constraint node %T", c)
}

// renameSubst builds the substitution for rename/rebase. Pairs map inner
// names (and their dotted extensions) to outer names resolved through the
// enclosing substitution; other names pass through (rename) or gain the
// rebase prefix.
func (fl *flattener) renameSubst(pairs []idl.RenamePair, env map[string]int, outer subst, prefix string) (subst, error) {
	type mapping struct{ inner, outer string }
	var maps []mapping
	for _, pr := range pairs {
		innerFlat, err := flattenVar(pr.Inner, env)
		if err != nil {
			return nil, err
		}
		outerFlat, err := flattenVar(pr.Outer, env)
		if err != nil {
			return nil, err
		}
		maps = append(maps, mapping{inner: innerFlat, outer: outer(outerFlat)})
	}
	return func(name string) string {
		for _, m := range maps {
			if name == m.inner {
				return m.outer
			}
			if strings.HasPrefix(name, m.inner+".") {
				return m.outer + name[len(m.inner):]
			}
		}
		if prefix != "" {
			return prefix + "." + name
		}
		return outer(name)
	}, nil
}

func cloneEnv(env map[string]int) map[string]int {
	out := make(map[string]int, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}

// flattenVar resolves the indices of a variable reference to integers.
func flattenVar(v idl.Var, env map[string]int) (string, error) {
	var b strings.Builder
	for i, p := range v.Parts {
		if i > 0 {
			b.WriteString(".")
		}
		b.WriteString(p.Text)
		if p.Index != nil {
			if p.RangeEnd != nil {
				return "", fmt.Errorf("range index in single-variable position: %s", v)
			}
			idx, err := p.Index.Eval(env)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "[%d]", idx)
		}
	}
	return b.String(), nil
}

// flattenListEntry expands a varmulti into one or more flat names.
func flattenListEntry(v idl.Var, env map[string]int) ([]string, error) {
	// Find a range part, if any.
	rangeAt := -1
	for i, p := range v.Parts {
		if p.RangeEnd != nil {
			if rangeAt >= 0 {
				return nil, fmt.Errorf("multiple ranges in %s", v)
			}
			rangeAt = i
		}
	}
	if rangeAt < 0 {
		s, err := flattenVar(v, env)
		if err != nil {
			return nil, err
		}
		return []string{s}, nil
	}
	lo, err := v.Parts[rangeAt].Index.Eval(env)
	if err != nil {
		return nil, err
	}
	hi, err := v.Parts[rangeAt].RangeEnd.Eval(env)
	if err != nil {
		return nil, err
	}
	var out []string
	for k := lo; k <= hi; k++ {
		clone := idl.Var{Parts: append([]idl.VarPart(nil), v.Parts...)}
		clone.Parts[rangeAt] = idl.VarPart{Text: v.Parts[rangeAt].Text, Index: idl.ConstCalc(k)}
		s, err := flattenVar(clone, env)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func flattenAtomic(a *idl.Atomic, env map[string]int, sb subst) (Node, error) {
	out := &NAtom{
		Kind: a.Kind, TypeName: a.TypeName, ConstantZero: a.ConstantZero,
		ClassName: a.ClassName, Opcode: a.Opcode, Negated: a.Negated,
		Strict: a.Strict, Post: a.Post, Flow: a.Flow, Edge: a.Edge, ArgIndex: a.ArgIndex,
	}
	for _, v := range a.Vars {
		s, err := flattenVar(v, env)
		if err != nil {
			return nil, err
		}
		out.Args = append(out.Args, sb(s))
	}
	for _, list := range a.Lists {
		var refs []ListRef
		for _, v := range list {
			names, err := flattenListEntry(v, env)
			if err != nil {
				return nil, err
			}
			for _, n := range names {
				refs = append(refs, ListRef{Name: sb(n)})
			}
		}
		out.Lists = append(out.Lists, refs)
	}
	return out, nil
}

// collectVars walks the formula gathering variable names in first-appearance
// order, skipping collect bodies (their variables are solved separately).
func collectVars(n Node, seen map[string]bool, out *[]string) {
	switch t := n.(type) {
	case *NAnd:
		for _, k := range t.Kids {
			collectVars(k, seen, out)
		}
	case *NOr:
		for _, k := range t.Kids {
			collectVars(k, seen, out)
		}
	case *NAtom:
		for _, a := range t.Args {
			if !seen[a] {
				seen[a] = true
				*out = append(*out, a)
			}
		}
		// List names refer to variables bound elsewhere; they do not create
		// solver variables themselves.
	case *NCollect:
		// skip
	}
}

// orderVariables produces the solving order of the variables listed in
// appearance order. The greedy strategy repeatedly picks a variable that has
// a candidate generator over already-chosen variables, which is what makes
// backtracking tractable (§4.4). Only an atom that mentions a variable can
// score it, so each pick scans the unchosen variables' own atoms; ties go to
// the earliest variable in appearance order.
func orderVariables(root Node, appearance []string, ord Ordering) []string {
	if ord == OrderAppearance {
		return appearance
	}
	vid := make(map[string]int, len(appearance))
	for i, v := range appearance {
		vid[v] = i
	}
	atomsOf := make([][]*NAtom, len(appearance))
	for _, at := range gatherAtoms(root) {
		for i, a := range at.Args {
			if id, ok := vid[a]; ok && !slices.Contains(at.Args[:i], a) {
				atomsOf[id] = append(atomsOf[id], at)
			}
		}
	}
	chosen := map[string]bool{}
	out := make([]string, 0, len(appearance))
	for len(out) < len(appearance) {
		best, bestScore := -1, -1
		for id, v := range appearance {
			if chosen[v] {
				continue
			}
			score := 0
			for _, at := range atomsOf[id] {
				score = max(score, generatorScore(at, v, chosen))
			}
			if score > bestScore {
				best, bestScore = id, score
			}
		}
		chosen[appearance[best]] = true
		out = append(out, appearance[best])
	}
	return out
}

func gatherAtoms(n Node) []*NAtom {
	var out []*NAtom
	var walk func(Node)
	walk = func(n Node) {
		switch t := n.(type) {
		case *NAnd:
			for _, k := range t.Kids {
				walk(k)
			}
		case *NOr:
			for _, k := range t.Kids {
				walk(k)
			}
		case *NAtom:
			out = append(out, t)
		}
	}
	walk(n)
	return out
}

// generatorScore rates how well atom `at` can generate candidates for v
// given the set of already-ordered variables.
func generatorScore(at *NAtom, v string, chosen map[string]bool) int {
	argPos := -1
	for i, a := range at.Args {
		if a == v {
			argPos = i
		}
	}
	if argPos < 0 {
		return 0
	}
	othersChosen := true
	for i, a := range at.Args {
		if i != argPos && !chosen[a] {
			othersChosen = false
		}
	}
	switch at.Kind {
	case idl.AtomOpcodeIs:
		return 2 // strong unary generator
	case idl.AtomClassIs:
		if at.ClassName == "argument" || at.ClassName == "constant" {
			return 2
		}
		return 1
	case idl.AtomTypeIs:
		if at.ConstantZero {
			return 2
		}
		return 0
	case idl.AtomArgOf, idl.AtomSameAs, idl.AtomEdge, idl.AtomReachesPhi:
		if othersChosen {
			return 3 // derived directly from assigned values
		}
		return 0
	default:
		return 0
	}
}

// String renders the problem for debugging and the idlc tool.
func (p *Problem) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "problem %s\n", p.Name)
	fmt.Fprintf(&b, "variables (%d): %s\n", len(p.Vars), strings.Join(p.Vars, ", "))
	var render func(n Node, indent string)
	render = func(n Node, indent string) {
		switch t := n.(type) {
		case *NAnd:
			fmt.Fprintf(&b, "%sand\n", indent)
			for _, k := range t.Kids {
				render(k, indent+"  ")
			}
		case *NOr:
			fmt.Fprintf(&b, "%sor\n", indent)
			for _, k := range t.Kids {
				render(k, indent+"  ")
			}
		case *NAtom:
			fmt.Fprintf(&b, "%s%s\n", indent, t.describe())
		case *NCollect:
			fmt.Fprintf(&b, "%scollect (min %d)\n", indent, t.Min)
		}
	}
	render(p.Root, "")
	return b.String()
}

func (t *NAtom) describe() string {
	var parts []string
	switch t.Kind {
	case idl.AtomTypeIs:
		parts = append(parts, t.Args[0], "is", t.TypeName)
		if t.ConstantZero {
			parts = append(parts, "constant zero")
		}
	case idl.AtomClassIs:
		parts = append(parts, t.Args[0], "is", t.ClassName)
	case idl.AtomOpcodeIs:
		parts = append(parts, t.Args[0], "is", t.Opcode, "instruction")
	case idl.AtomSameAs:
		if t.Negated {
			parts = append(parts, t.Args[0], "is not the same as", t.Args[1])
		} else {
			parts = append(parts, t.Args[0], "is the same as", t.Args[1])
		}
	case idl.AtomEdge:
		kinds := map[idl.EdgeKind]string{
			idl.EdgeDataFlow: "data flow", idl.EdgeControlFlow: "control flow",
			idl.EdgeControlDominance: "control dominance", idl.EdgeDependence: "dependence edge",
		}
		parts = append(parts, t.Args[0], "has", kinds[t.Edge], "to", t.Args[1])
	case idl.AtomArgOf:
		names := []string{"first", "second", "third", "fourth"}
		parts = append(parts, t.Args[0], "is", names[t.ArgIndex], "argument of", t.Args[1])
	case idl.AtomReachesPhi:
		parts = append(parts, t.Args[0], "reaches phi node", t.Args[1], "from", t.Args[2])
	case idl.AtomDominates:
		parts = append(parts, t.Args[0])
		if t.Negated {
			parts = append(parts, "does not")
		}
		if t.Strict {
			parts = append(parts, "strictly")
		}
		if t.Flow == idl.FlowControl {
			parts = append(parts, "control flow")
		} else if t.Flow == idl.FlowData {
			parts = append(parts, "data flow")
		}
		if t.Post {
			parts = append(parts, "post")
		}
		parts = append(parts, "dominates", t.Args[1])
	case idl.AtomPassesThrough:
		parts = append(parts, "all flow from", t.Args[0], "to", t.Args[1], "passes through", t.Args[2])
	case idl.AtomKilledBy:
		parts = append(parts, "all flow from", listNames(t.Lists[0]), "to", listNames(t.Lists[1]), "is killed by", listNames(t.Lists[2]))
	case idl.AtomOperandsFrom:
		parts = append(parts, "all operands of", t.Args[0], "come from", listNames(t.Lists[0]), "below", t.Args[1])
	case idl.AtomNoOpcodeBelow:
		parts = append(parts, "no", t.Opcode, "instruction below", t.Args[0])
	}
	return strings.Join(parts, " ")
}

func listNames(refs []ListRef) string {
	names := make([]string, len(refs))
	for i, r := range refs {
		names[i] = r.Name
	}
	sort.Strings(names)
	return "{" + strings.Join(names, ",") + "}"
}
