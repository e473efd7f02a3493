package constraint

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/idl"
	"repro/internal/ir"
)

// Solution assigns IR values to the flat variable names of a problem.
type Solution map[string]ir.Value

// String renders a solution in a stable order (like the paper's Fig. 5).
func (s Solution) String() string {
	names := make([]string, 0, len(s))
	for n := range s {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("{\n")
	for _, n := range names {
		fmt.Fprintf(&b, "  %q : %s\n", n, s[n].Operand())
	}
	b.WriteString("}")
	return b.String()
}

// tribool is the three-valued logic the partial evaluator uses.
type tribool int

const (
	triFalse tribool = iota
	triTrue
	triUnknown
)

// probIndex is the per-problem static structure that makes node evaluation
// incremental: nodes are numbered, each node knows the set of solver
// variables occurring in its subtree, and each variable knows the nodes it
// can invalidate. It is built once per Problem and shared by all solvers.
type probIndex struct {
	nodes []Node  // id -> node
	kids  [][]int // id -> child node ids
	root  int

	varID    map[string]int
	varNodes [][]int  // var id -> ids of nodes whose subtree mentions it
	varIn    [][]bool // node id -> var id -> mentioned

	// collect metadata, keyed by position in nodes.
	collectProto map[*NCollect]*collectInfo
}

// collectInfo caches everything derivable from a collect body's prototype
// instance: the flattened body, its variable list and its own sub-index.
type collectInfo struct {
	proto     Node
	protoVars []string
	idx       *probIndex
}

var (
	indexMu    sync.RWMutex
	indexCache = map[*Problem]*probIndex{}
)

// indexFor builds (or returns the cached) static index of a problem. Solvers
// for the same problem are routinely constructed from many goroutines, so
// the hot path is a read lock; only the first solver per problem pays the
// build under the write lock.
func indexFor(p *Problem) *probIndex {
	indexMu.RLock()
	idx, ok := indexCache[p]
	indexMu.RUnlock()
	if ok {
		return idx
	}
	indexMu.Lock()
	defer indexMu.Unlock()
	if idx, ok := indexCache[p]; ok {
		return idx
	}
	idx = buildIndex(p.Root, p.Vars)
	indexCache[p] = idx
	return idx
}

// Prepare eagerly builds the static node index of a problem (and, via the
// index walk, the flattened collect prototypes) so that concurrent solver
// construction never contends on the build caches. It is idempotent and safe
// to call from multiple goroutines.
func Prepare(p *Problem) {
	indexFor(p)
}

func buildIndex(root Node, vars []string) *probIndex {
	idx := &probIndex{
		varID:        map[string]int{},
		collectProto: map[*NCollect]*collectInfo{},
	}
	for i, v := range vars {
		idx.varID[v] = i
	}
	nvars := len(vars)

	var walk func(n Node) (int, []bool)
	walk = func(n Node) (int, []bool) {
		id := len(idx.nodes)
		idx.nodes = append(idx.nodes, n)
		idx.kids = append(idx.kids, nil)
		idx.varIn = append(idx.varIn, nil)
		mask := make([]bool, nvars)
		switch t := n.(type) {
		case *NAnd:
			var kids []int
			for _, k := range t.Kids {
				kid, km := walk(k)
				kids = append(kids, kid)
				orInto(mask, km)
			}
			idx.kids[id] = kids
		case *NOr:
			var kids []int
			for _, k := range t.Kids {
				kid, km := walk(k)
				kids = append(kids, kid)
				orInto(mask, km)
			}
			idx.kids[id] = kids
		case *NAtom:
			for _, a := range t.Args {
				if vid, ok := idx.varID[a]; ok {
					mask[vid] = true
				}
			}
			for _, list := range t.Lists {
				for _, r := range list {
					if vid, ok := idx.varID[r.Name]; ok {
						mask[vid] = true
					}
				}
			}
		case *NCollect:
			ci := collectInfoFor(t)
			idx.collectProto[t] = ci
			if ci != nil {
				for _, v := range ci.protoVars {
					if vid, ok := idx.varID[v]; ok {
						mask[vid] = true
					}
				}
			}
		}
		idx.varIn[id] = mask
		return id, mask
	}
	rootID, _ := walk(root)
	idx.root = rootID

	idx.varNodes = make([][]int, nvars)
	for id, mask := range idx.varIn {
		for vid, in := range mask {
			if in {
				idx.varNodes[vid] = append(idx.varNodes[vid], id)
			}
		}
	}
	return idx
}

func orInto(dst, src []bool) {
	for i, b := range src {
		if b {
			dst[i] = true
		}
	}
}

var (
	collectMu      sync.RWMutex
	collectInfoMap = map[*NCollect]*collectInfo{}
)

// collectInfoFor flattens the prototype instance of a collect body once and
// caches its variable list and sub-index for reuse by every solver.
func collectInfoFor(c *NCollect) *collectInfo {
	collectMu.RLock()
	ci, ok := collectInfoMap[c]
	collectMu.RUnlock()
	if ok {
		return ci
	}
	collectMu.Lock()
	defer collectMu.Unlock()
	if ci, ok := collectInfoMap[c]; ok {
		return ci
	}
	proto, err := c.Instantiate(0)
	if err != nil {
		collectInfoMap[c] = nil
		return nil
	}
	var vars []string
	collectVars(proto, map[string]bool{}, &vars)
	// List references inside the body can also name outer variables.
	for _, at := range gatherAtoms(proto) {
		seen := map[string]bool{}
		for _, v := range vars {
			seen[v] = true
		}
		for _, list := range at.Lists {
			for _, r := range list {
				if !seen[r.Name] {
					seen[r.Name] = true
					vars = append(vars, r.Name)
				}
			}
		}
	}
	ci = &collectInfo{proto: proto, protoVars: vars}
	ci.idx = buildIndex(proto, vars)
	collectInfoMap[c] = ci
	return ci
}

// Solver searches one analysed function for all solutions of a problem.
type Solver struct {
	prob *Problem
	info *analysis.Info
	idx  *probIndex

	// domain is every value a variable may take: instructions, arguments
	// and constants appearing as operands.
	domain []ir.Value

	// byOpcode indexes the instructions for candidate generation.
	byOpcode map[ir.Opcode][]ir.Value

	// assign is the current partial assignment of the backtracking search.
	assign map[string]ir.Value

	// node evaluation cache (invalidated per variable via idx.varNodes).
	nodeVal   []tribool
	nodeKnown []bool

	sols    []Solution
	solKeys map[string]bool

	// collectMemo caches resolved collects keyed by the binding signature of
	// the body's outer variables.
	collectMemo map[string]*collectResult

	cancelled bool

	// lateBinds counts variable bindings performed after cancellation was
	// observed — wasted unwinding work. The per-candidate cancel check in
	// step keeps it at zero.
	lateBinds int

	// Steps counts backtracking search steps (the paper's compile-time cost
	// metric).
	Steps int

	// Limit bounds the number of solutions collected (0 = unlimited).
	Limit int

	// NaiveCandidates disables atom-driven candidate generation: every
	// variable enumerates the full domain (the ablation of §4.4's search
	// space pruning; see bench_test.go).
	NaiveCandidates bool

	// Cancel, when non-nil, aborts the backtracking search as soon as the
	// channel is closed: Solve returns whatever it has found so far and
	// Cancelled reports true. An aborted search is incomplete — callers must
	// not treat (or memoize) its result as a full enumeration.
	Cancel <-chan struct{}
}

type collectResult struct {
	ok       bool
	bindings []binding
}

type binding struct {
	name string
	val  ir.Value
}

// NewSolver prepares a solver for one function.
func NewSolver(prob *Problem, info *analysis.Info) *Solver {
	s := &Solver{prob: prob, info: info, assign: map[string]ir.Value{}}
	for _, arg := range info.Fn.Args {
		s.domain = append(s.domain, arg)
	}
	seenConst := map[string]bool{}
	for _, in := range info.Instrs {
		if in.HasResult() {
			s.domain = append(s.domain, in)
		}
		for _, op := range in.Ops {
			if c, ok := op.(*ir.Const); ok {
				key := c.Ty.String() + ":" + c.Operand()
				if !seenConst[key] {
					seenConst[key] = true
					s.domain = append(s.domain, c)
				}
			}
		}
	}
	// Terminators and stores are values too for constraint purposes (they
	// can be bound even though they produce no SSA result).
	for _, in := range s.info.Instrs {
		if !in.HasResult() {
			s.domain = append(s.domain, in)
		}
	}
	s.byOpcode = map[ir.Opcode][]ir.Value{}
	for _, in := range info.Instrs {
		s.byOpcode[in.Op] = append(s.byOpcode[in.Op], in)
	}
	s.attachIndex(indexFor(prob))
	return s
}

// attachIndex installs the static index and resets the evaluation cache.
func (s *Solver) attachIndex(idx *probIndex) {
	s.idx = idx
	s.nodeVal = make([]tribool, len(idx.nodes))
	s.nodeKnown = make([]bool, len(idx.nodes))
}

// bind assigns a variable and invalidates affected node caches.
func (s *Solver) bind(v string, val ir.Value) {
	if s.cancelled {
		// Search effort spent after the abort was observed. The per-candidate
		// cancel checks keep this at zero; tracked so tests can pin it.
		s.lateBinds++
	}
	s.assign[v] = val
	if vid, ok := s.idx.varID[v]; ok {
		for _, id := range s.idx.varNodes[vid] {
			s.nodeKnown[id] = false
		}
	}
}

// unbind removes a variable assignment and invalidates node caches.
func (s *Solver) unbind(v string) {
	delete(s.assign, v)
	if vid, ok := s.idx.varID[v]; ok {
		for _, id := range s.idx.varNodes[vid] {
			s.nodeKnown[id] = false
		}
	}
}

// Solve enumerates all solutions by one sequential backtracking search.
func (s *Solver) Solve() []Solution {
	s.sols = nil
	s.solKeys = map[string]bool{}
	s.step(0)
	return s.sols
}

// Cancelled reports whether the last Solve was aborted through Cancel before
// exhausting the search space.
func (s *Solver) Cancelled() bool { return s.cancelled }

func (s *Solver) limitReached() bool {
	return s.Limit > 0 && len(s.sols) >= s.Limit
}

func (s *Solver) step(k int) {
	if s.cancelled || s.limitReached() {
		return
	}
	s.Steps++
	// Poll Cancel every 64 steps: cheap enough to be invisible on the hot
	// path, frequent enough to shed a multi-millisecond solve promptly.
	if s.Cancel != nil && s.Steps&63 == 0 {
		select {
		case <-s.Cancel:
			s.cancelled = true
			return
		default:
		}
	}
	if k == len(s.prob.Vars) {
		s.finish()
		return
	}
	v := s.prob.Vars[k]
	if _, already := s.assign[v]; already {
		// Bound through an alias earlier; just verify and continue.
		if s.evalNode(s.idx.root) != triFalse {
			s.step(k + 1)
		}
		return
	}
	vid := s.idx.varID[v]
	if !s.relevantID(s.idx.root, vid) {
		// Every occurrence of v lies under an already-satisfied
		// disjunction: its value cannot affect the formula. Bind the
		// canonical marker so equivalent solutions collapse.
		s.bind(v, Unconstrained)
		s.step(k + 1)
		s.unbind(v)
		return
	}
	for _, c := range s.candidateList(v) {
		s.tryCandidate(k, v, c)
		// Observe the flag set by the periodic poll deeper in the recursion:
		// without this, a cancel detected at depth d keeps enumerating
		// siblings through bind/eval work at every frame on the way out.
		if s.cancelled || s.limitReached() {
			return
		}
	}
}

// candidateList returns every value variable v must be drawn from under the
// current assignment: the atom-derived candidate set when it is bounded, the
// full domain otherwise (or always, under the NaiveCandidates ablation).
func (s *Solver) candidateList(v string) []ir.Value {
	if !s.NaiveCandidates {
		if cands, bounded := s.candidates(s.prob.Root, v); bounded {
			return cands
		}
	}
	return s.domain
}

// tryCandidate binds v to c, recurses into the next variable when the
// formula stays satisfiable, and unbinds: the per-candidate body of step.
func (s *Solver) tryCandidate(k int, v string, c ir.Value) {
	s.bind(v, c)
	if s.evalNode(s.idx.root) != triFalse {
		s.step(k + 1)
	}
	s.unbind(v)
}

// evalNode is the cached three-valued evaluation of a formula node under the
// current partial assignment. Collects never prune the partial search; they
// are resolved in evalFinal.
func (s *Solver) evalNode(id int) tribool {
	if s.nodeKnown[id] {
		return s.nodeVal[id]
	}
	var out tribool
	switch t := s.idx.nodes[id].(type) {
	case *NAnd:
		out = triTrue
		for _, kid := range s.idx.kids[id] {
			switch s.evalNode(kid) {
			case triFalse:
				out = triFalse
			case triUnknown:
				if out != triFalse {
					out = triUnknown
				}
			}
			if out == triFalse {
				break
			}
		}
	case *NOr:
		out = triFalse
		for _, kid := range s.idx.kids[id] {
			switch s.evalNode(kid) {
			case triTrue:
				out = triTrue
			case triUnknown:
				if out != triTrue {
					out = triUnknown
				}
			}
			if out == triTrue {
				break
			}
		}
	case *NAtom:
		out = s.evalAtom(t, false)
	case *NCollect:
		out = triUnknown
	}
	s.nodeKnown[id] = true
	s.nodeVal[id] = out
	return out
}

// relevantID reports whether variable vid can still influence the truth of
// the formula under the current partial assignment. Three-valued evaluation
// is monotone in assignments — decided nodes (true or false) stay decided —
// so only Unknown regions of the formula can be affected by the variable.
func (s *Solver) relevantID(id int, vid int) bool {
	if !s.idx.varIn[id][vid] {
		return false
	}
	if s.evalNode(id) != triUnknown {
		return false
	}
	switch s.idx.nodes[id].(type) {
	case *NAnd, *NOr:
		for _, kid := range s.idx.kids[id] {
			if s.relevantID(kid, vid) {
				return true
			}
		}
		return false
	case *NAtom, *NCollect:
		return true
	}
	return false
}

// finish validates the full assignment including collects, then records the
// solution. Collect bindings are installed into the live assignment while
// the remainder of the formula evaluates, so list atomics following a
// collect (e.g. a kernel over collected reads) can see them.
func (s *Solver) finish() {
	// Canonicalize: variables whose assignment no longer influences the
	// formula (their occurrences all sit in decided subformulas) are reset
	// to the Unconstrained marker so equivalent solutions collapse. The
	// original values are restored before returning to the search.
	saved := map[string]ir.Value{}
	for _, v := range s.prob.Vars {
		val, bound := s.assign[v]
		if !bound || val == Unconstrained {
			continue
		}
		s.unbind(v)
		if s.relevantID(s.idx.root, s.idx.varID[v]) {
			s.bind(v, val)
		} else {
			saved[v] = val
			s.bind(v, Unconstrained)
		}
	}
	restore := func() {
		for k, val := range saved {
			s.bind(k, val)
		}
	}

	extra := map[string]ir.Value{}
	ok := s.evalFinal(s.prob.Root, extra)
	for k := range extra {
		delete(s.assign, k)
	}
	if ok != triTrue {
		restore()
		return
	}
	sol := Solution{}
	for k, v := range s.assign {
		sol[k] = v
	}
	for k, v := range extra {
		sol[k] = v
	}
	restore()
	// Deduplicate identical solutions arising from overlapping disjunctions.
	key := canonicalKey(sol)
	if s.solKeys[key] {
		return
	}
	s.solKeys[key] = true
	s.sols = append(s.sols, sol)
}

// canonicalKey renders a solution as a stable string for deduplication.
func canonicalKey(sol Solution) string {
	names := make([]string, 0, len(sol))
	for n := range sol {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(n)
		b.WriteByte('=')
		v := sol[n]
		if c, ok := v.(*ir.Const); ok {
			b.WriteString(c.Ty.String())
			b.WriteByte(':')
		}
		b.WriteString(v.Operand())
		b.WriteByte(';')
	}
	return b.String()
}

func sameSolution(a, b Solution) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || !sameValue(v, w) {
			return false
		}
	}
	return true
}

// sameValue compares values; constants compare by type and payload.
func sameValue(a, b ir.Value) bool {
	if a == b {
		return true
	}
	ca, ok1 := a.(*ir.Const)
	cb, ok2 := b.(*ir.Const)
	if !ok1 || !ok2 || !ca.Ty.Equal(cb.Ty) {
		return false
	}
	return ca.Null == cb.Null && ca.IntVal == cb.IntVal && ca.FloatVal == cb.FloatVal
}

// --- three-valued evaluation (uncached walk used by final validation) ---

// eval evaluates the formula under the current partial assignment. When
// final is true, collects and list atomics are fully resolved.
func (s *Solver) eval(n Node, final bool) tribool {
	switch t := n.(type) {
	case *NAnd:
		out := triTrue
		for _, k := range t.Kids {
			switch s.eval(k, final) {
			case triFalse:
				return triFalse
			case triUnknown:
				out = triUnknown
			}
		}
		return out
	case *NOr:
		out := triFalse
		for _, k := range t.Kids {
			switch s.eval(k, final) {
			case triTrue:
				return triTrue
			case triUnknown:
				out = triUnknown
			}
		}
		return out
	case *NAtom:
		return s.evalAtom(t, final)
	case *NCollect:
		// Collects never prune the partial search; they are resolved in
		// evalFinal.
		return triUnknown
	}
	return triUnknown
}

// evalFinal evaluates with all regular variables assigned, resolving
// collect nodes and binding their solutions into extra.
func (s *Solver) evalFinal(n Node, extra map[string]ir.Value) tribool {
	switch t := n.(type) {
	case *NAnd:
		for _, k := range t.Kids {
			if s.evalFinal(k, extra) != triTrue {
				return triFalse
			}
		}
		return triTrue
	case *NOr:
		for _, k := range t.Kids {
			if s.evalFinal(k, extra) == triTrue {
				return triTrue
			}
		}
		return triFalse
	case *NAtom:
		return s.evalAtom(t, true)
	case *NCollect:
		return s.resolveCollect(t, extra)
	}
	return triFalse
}

// resolveCollect enumerates all solutions of the collect body and binds the
// indexed instances. Results are memoized on the binding signature of the
// body's outer variables: identical outer contexts resolve identically.
func (s *Solver) resolveCollect(c *NCollect, extra map[string]ir.Value) tribool {
	ci := s.idx.collectProto[c]
	if ci == nil {
		ci = collectInfoFor(c)
	}
	if ci == nil {
		return triFalse
	}

	// Memo lookup.
	var keyB strings.Builder
	fmt.Fprintf(&keyB, "%p|", c)
	for _, v := range ci.protoVars {
		if val, bound := s.assign[v]; bound {
			keyB.WriteString(v)
			keyB.WriteByte('=')
			if cst, ok := val.(*ir.Const); ok {
				keyB.WriteString(cst.Ty.String())
				keyB.WriteByte(':')
			}
			keyB.WriteString(val.Operand())
			keyB.WriteByte(';')
		}
	}
	key := keyB.String()
	if s.collectMemo == nil {
		s.collectMemo = map[string]*collectResult{}
	}
	if res, hit := s.collectMemo[key]; hit {
		if !res.ok {
			return triFalse
		}
		for _, b := range res.bindings {
			extra[b.name] = b.val
			s.assign[b.name] = b.val
		}
		return triTrue
	}
	memo := &collectResult{}
	s.collectMemo[key] = memo

	// Variables already bound by the outer assignment stay fixed; the rest
	// are solved for.
	var free []string
	freeSet := map[string]bool{}
	for _, v := range ci.protoVars {
		if _, bound := s.assign[v]; !bound {
			free = append(free, v)
			freeSet[v] = true
		}
	}
	sub := &Solver{
		prob:     &Problem{Name: "collect", Root: ci.proto, Vars: free},
		info:     s.info,
		domain:   s.domain,
		byOpcode: s.byOpcode,
		assign:   map[string]ir.Value{},
		Cancel:   s.Cancel,
	}
	sub.attachIndex(buildIndex(ci.proto, free))
	for k, v := range s.assign {
		sub.assign[k] = v
	}
	subSols := sub.Solve()
	if sub.cancelled {
		s.cancelled = true
	}
	s.lateBinds += sub.lateBinds
	if debugCollect {
		fmt.Printf("resolveCollect: free=%v assign-keys=%d subSols=%d\n", free, len(s.assign), len(subSols))
		for i, ss := range subSols {
			fmt.Printf("  sub %d: %s\n", i, ss)
		}
	}
	s.Steps += sub.Steps
	if len(subSols) < c.Min {
		return triFalse
	}
	// Deterministic order: by position of the first free variable's value in
	// the textual rendering.
	sort.SliceStable(subSols, func(i, j int) bool {
		return solutionKey(subSols[i], free) < solutionKey(subSols[j], free)
	})
	for j, sol := range subSols {
		inst, err := c.Instantiate(j)
		if err != nil {
			return triFalse
		}
		var instVars []string
		collectVars(inst, map[string]bool{}, &instVars)
		var protoOrdered []string
		collectVars(ci.proto, map[string]bool{}, &protoOrdered)
		if len(instVars) != len(protoOrdered) {
			return triFalse
		}
		for i, pv := range protoOrdered {
			if v, ok := sol[pv]; ok && freeSet[pv] {
				extra[instVars[i]] = v
				s.assign[instVars[i]] = v
				memo.bindings = append(memo.bindings, binding{instVars[i], v})
			}
		}
	}
	memo.ok = true
	return triTrue
}

func solutionKey(sol Solution, vars []string) string {
	var b strings.Builder
	for _, v := range vars {
		if val, ok := sol[v]; ok {
			b.WriteString(val.Operand())
			b.WriteString("|")
		}
	}
	return b.String()
}

// --- candidate generation ---

// candidates derives a sound candidate set for variable v from the formula:
// any satisfying assignment must draw v from the returned set. AND nodes may
// use any child's set (the tightest is chosen); OR nodes need every child to
// produce one.
func (s *Solver) candidates(n Node, v string) ([]ir.Value, bool) {
	switch t := n.(type) {
	case *NAnd:
		best := []ir.Value(nil)
		found := false
		for _, k := range t.Kids {
			if set, ok := s.candidates(k, v); ok {
				if !found || len(set) < len(best) {
					best = set
					found = true
				}
			}
		}
		return best, found
	case *NOr:
		var union []ir.Value
		seen := map[ir.Value]bool{}
		for _, k := range t.Kids {
			set, ok := s.candidates(k, v)
			if !ok {
				return nil, false
			}
			for _, c := range set {
				if !seen[c] {
					seen[c] = true
					union = append(union, c)
				}
			}
		}
		return union, true
	case *NAtom:
		return s.atomCandidates(t, v)
	}
	return nil, false
}

func (s *Solver) atomCandidates(t *NAtom, v string) ([]ir.Value, bool) {
	pos := -1
	for i, a := range t.Args {
		if a == v {
			pos = i
			break
		}
	}
	if pos < 0 {
		return nil, false
	}
	val := func(i int) (ir.Value, bool) {
		x, ok := s.assign[t.Args[i]]
		return x, ok
	}
	switch t.Kind {
	case idl.AtomOpcodeIs:
		op, ok := opcodeFor(t.Opcode)
		if !ok {
			return nil, true // unknown opcode: empty set
		}
		return s.byOpcode[op], true

	case idl.AtomClassIs:
		switch t.ClassName {
		case "argument":
			out := make([]ir.Value, 0, len(s.info.Fn.Args))
			for _, a := range s.info.Fn.Args {
				out = append(out, a)
			}
			return out, true
		case "constant":
			var out []ir.Value
			for _, d := range s.domain {
				if _, ok := d.(*ir.Const); ok {
					out = append(out, d)
				}
			}
			return out, true
		}
		return nil, false

	case idl.AtomTypeIs:
		var out []ir.Value
		for _, d := range s.domain {
			if s.evalTypeIs(t, d) {
				out = append(out, d)
			}
		}
		return out, true

	case idl.AtomSameAs:
		if t.Negated {
			return nil, false
		}
		other := 1 - pos
		if x, ok := val(other); ok {
			return []ir.Value{x}, true
		}
		return nil, false

	case idl.AtomArgOf:
		// Args[0] is the operand, Args[1] the instruction.
		if pos == 0 {
			if y, ok := val(1); ok {
				if yi, isInstr := y.(*ir.Instruction); isInstr {
					if op := yi.OperandAt(t.ArgIndex); op != nil {
						return []ir.Value{op}, true
					}
				}
				return nil, true
			}
			return nil, false
		}
		if x, ok := val(0); ok {
			var out []ir.Value
			for _, u := range s.usersOf(x) {
				if op := u.OperandAt(t.ArgIndex); op != nil && sameValue(op, x) {
					out = append(out, u)
				}
			}
			return out, true
		}
		return nil, false

	case idl.AtomEdge:
		other := 1 - pos
		x, ok := val(other)
		if !ok {
			return nil, false
		}
		switch t.Edge {
		case idl.EdgeDataFlow:
			if pos == 1 { // v is the user
				var out []ir.Value
				for _, u := range s.usersOf(x) {
					out = append(out, u)
				}
				return out, true
			}
			if xi, isInstr := x.(*ir.Instruction); isInstr { // v is an operand of x
				return append([]ir.Value(nil), xi.Ops...), true
			}
			return nil, true
		case idl.EdgeControlFlow:
			xi, isInstr := x.(*ir.Instruction)
			if !isInstr {
				return nil, true
			}
			var out []ir.Value
			if pos == 1 {
				for _, in := range s.info.Successors(xi) {
					out = append(out, in)
				}
			} else {
				for _, in := range s.info.Predecessors(xi) {
					out = append(out, in)
				}
			}
			return out, true
		default:
			return nil, false
		}

	case idl.AtomReachesPhi:
		// Args: value, phi, from-branch.
		phiV, phiBound := val(1)
		switch pos {
		case 0:
			if phiBound {
				if phi, ok := phiV.(*ir.Instruction); ok && phi.Op == ir.OpPhi {
					return append([]ir.Value(nil), phi.Ops...), true
				}
				return nil, true
			}
			return nil, false
		case 1:
			if x, ok := val(0); ok {
				var out []ir.Value
				for _, u := range s.usersOf(x) {
					if u.Op == ir.OpPhi {
						out = append(out, u)
					}
				}
				// Values reaching phis include constants, which have no
				// tracked users; fall back to scanning all phis then.
				if _, isConst := x.(*ir.Const); isConst {
					out = out[:0]
					for _, in := range s.byOpcode[ir.OpPhi] {
						out = append(out, in)
					}
				}
				return out, true
			}
			return nil, false
		case 2:
			if phiBound {
				if phi, ok := phiV.(*ir.Instruction); ok && phi.Op == ir.OpPhi {
					var out []ir.Value
					for _, ib := range phi.Incoming {
						if term := ib.Terminator(); term != nil {
							out = append(out, term)
						}
					}
					return out, true
				}
				return nil, true
			}
			return nil, false
		}
	}
	return nil, false
}

// usersOf returns instructions using x; constants are matched semantically.
func (s *Solver) usersOf(x ir.Value) []*ir.Instruction {
	if _, isConst := x.(*ir.Const); !isConst {
		return s.info.Users(x)
	}
	var out []*ir.Instruction
	for _, in := range s.info.Instrs {
		for _, op := range in.Ops {
			if sameValue(op, x) {
				out = append(out, in)
				break
			}
		}
	}
	return out
}

// debugCollect enables tracing of collect resolution (tests only).
var debugCollect bool
