package constraint

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/analysis"
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
type tribool uint8

const (
	triFalse tribool = iota
	triTrue
	triUnknown
)

func slotValue(assign []ir.Value, slot int) ir.Value {
	if slot < len(assign) {
		return assign[slot]
	}
	return nil
}

// Solver searches one analysed function for all solutions of a problem.
type Solver struct {
	info *analysis.Info
	idx  *probIndex
	fn   *funcData

	// assign is the current partial assignment of the backtracking search,
	// indexed by slot; nil means unbound.
	assign []ir.Value

	// ev holds every formula node's value under assign, kept current by
	// bind and restored by unbind; it is drawn from the index's pool for
	// the length of one search.
	ev *evalState

	// rows are the solutions found, indexed by slot; solKeys deduplicates
	// them by key (see appendKey).
	rows    [][]ir.Value
	solKeys map[string]struct{}

	// collectMemo caches resolved collects keyed by the collect and the
	// values of its body's bound outer variables.
	collectMemo map[string]*collectResult

	// Scratch reused across steps, so that a warm search does not allocate:
	// arena is a stack of the candidate sets derived for the variables being
	// enumerated, sets the disjunct sets being united, saved/extra/row/key
	// finish's bookkeeping, lists the expanded varlists, sub the collect
	// sub-solver.
	arena []ir.Value
	sets  [][]ir.Value
	saved []binding
	extra []int
	row   []ir.Value
	key   []byte
	lists [3][]ir.Value
	sub   *Solver

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

// evalState is one search's node values and the trail that undoes them.
type evalState struct {
	nodes []nodeState // node id -> state
	trail []trailEntry
}

// nodeState is a node's value under the current partial assignment. A
// conjunction also counts its false and unknown kids, a disjunction its true
// and unknown kids: dec counts the kids whose value decides the node.
type nodeState struct {
	val      tribool
	dec, unk int32
}

// trailEntry records the state a change overwrote.
type trailEntry struct {
	id   int32
	prev nodeState
}

type collectResult struct {
	ok       bool
	bindings []binding
}

type binding struct {
	slot int
	val  ir.Value
}

// NewSolver prepares a solver for one function.
func NewSolver(prob *Problem, info *analysis.Info) *Solver {
	s := &Solver{info: info, fn: newFuncData(info), idx: prob.index()}
	s.assign = make([]ir.Value, len(s.idx.syms.list()))
	return s
}

// checkState, when set, is called after every bind, unbind, canonicalization
// step and finish with the operation's name. Tests install it to compare the
// maintained node values with a from-scratch evaluation.
var checkState func(s *Solver, op string)

// bind assigns a variable and brings the node values up to date, returning
// the trail mark that the matching unbind restores. When the bind turns the
// root false it stops there, leaving the variable's remaining atoms stale:
// the caller prunes the candidate and unbinds at once. A root that was false
// already (a formula false before any binding, whose irrelevant variables
// step still binds) is propagated in full.
func (s *Solver) bind(slot int, val ir.Value) int {
	if s.cancelled {
		// Search effort spent after the abort was observed. The per-candidate
		// cancel checks keep this at zero; tracked so tests can pin it.
		s.lateBinds++
	}
	mark := len(s.ev.trail)
	live := s.value(0) != triFalse
	s.assign[slot] = val
	s.update(slot, live)
	if checkState != nil {
		op := "bind"
		if live && s.value(0) == triFalse {
			op = "pruning bind"
		}
		checkState(s, op)
	}
	return mark
}

// unbind removes a variable assignment and restores the node values the
// matching bind found; nothing is re-evaluated.
func (s *Solver) unbind(slot, mark int) {
	s.assign[slot] = nil
	s.undo(mark)
	if checkState != nil {
		checkState(s, "unbind")
	}
}

// Solve enumerates all solutions by one sequential backtracking search.
func (s *Solver) Solve() []Solution {
	s.search()
	var sols []Solution
	names := s.idx.syms.list()
	for _, row := range s.rows {
		sol := Solution{}
		for slot, v := range row {
			if v != nil {
				sol[names[slot]] = v
			}
		}
		sols = append(sols, sol)
	}
	return sols
}

// search runs the backtracking search, leaving the solutions in rows.
func (s *Solver) search() {
	s.rows = s.rows[:0]
	if s.solKeys == nil {
		s.solKeys = map[string]struct{}{}
	}
	clear(s.solKeys)
	s.ev = s.idx.states.Get().(*evalState)
	s.evaluate()
	s.step(0)
	// Every bind has been undone: the state goes back with an empty trail.
	s.idx.states.Put(s.ev)
	s.ev = nil
}

// Cancelled reports whether the last Solve was aborted through Cancel before
// exhausting the search space.
func (s *Solver) Cancelled() bool { return s.cancelled }

func (s *Solver) limitReached() bool {
	return s.Limit > 0 && len(s.rows) >= s.Limit
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
	if k == len(s.idx.vars) {
		s.finish()
		return
	}
	v := s.idx.vars[k]
	if s.assign[v] != nil {
		// Bound through an alias earlier; just verify and continue.
		if s.value(0) != triFalse {
			s.step(k + 1)
		}
		return
	}
	if !s.relevantID(0, k) {
		// Every occurrence of v lies under an already-satisfied
		// disjunction: its value cannot affect the formula. Bind the
		// canonical marker so equivalent solutions collapse.
		mark := s.bind(v, Unconstrained)
		s.step(k + 1)
		s.unbind(v, mark)
		return
	}
	mark := len(s.arena)
	for _, c := range s.candidateList(k) {
		s.tryCandidate(k, c)
		// Observe the flag set by the periodic poll deeper in the recursion:
		// without this, a cancel detected at depth d keeps enumerating
		// siblings through bind/eval work at every frame on the way out.
		if s.cancelled || s.limitReached() {
			break
		}
	}
	s.arena = s.arena[:mark]
}

// candidateList returns every value variable k must be drawn from under the
// current assignment: the atom-derived candidate set when it is bounded, the
// full domain otherwise (or always, under the NaiveCandidates ablation).
// Derived sets are appended to the arena, which step truncates once the
// variable's candidates are exhausted.
func (s *Solver) candidateList(k int) []ir.Value {
	if !s.NaiveCandidates {
		if cands, bounded := s.candidates(0, k); bounded {
			return cands
		}
	}
	return s.fn.domain
}

// tryCandidate binds variable k to c, recurses into the next variable when
// the formula stays satisfiable, and unbinds: the per-candidate body of step.
func (s *Solver) tryCandidate(k int, c ir.Value) {
	v := s.idx.vars[k]
	mark := s.bind(v, c)
	if s.value(0) != triFalse {
		s.step(k + 1)
	}
	s.unbind(v, mark)
}

// value is node id's three-valued value under the current partial
// assignment. Collects never prune the partial search; they are resolved in
// evalFinal.
func (s *Solver) value(id int) tribool { return s.ev.nodes[id].val }

// junction returns the kid value that decides a conjunction (false) or a
// disjunction (true), and the node's value when no kid decides it and none
// is unknown.
func junction(kind nodeKind) (decisive, otherwise tribool) {
	if kind == kOr {
		return triTrue, triFalse
	}
	return triFalse, triTrue
}

// tally adds d to the count that a kid of value v falls in.
func (st *nodeState) tally(v, decisive tribool, d int32) {
	switch v {
	case decisive:
		st.dec += d
	case triUnknown:
		st.unk += d
	}
}

// derive returns a conjunction's or disjunction's value from its counts.
func (st *nodeState) derive(decisive, otherwise tribool) tribool {
	switch {
	case st.dec > 0:
		return decisive
	case st.unk > 0:
		return triUnknown
	}
	return otherwise
}

// evaluate readies the search's node values: every node is evaluated once,
// bottom-up, under the assignment the search starts from (all unbound, or a
// collect body's bound outer names).
func (s *Solver) evaluate() {
	e := s.ev
	// Pre-order numbering puts every kid after its parent.
	for id := len(s.idx.nodes) - 1; id >= 0; id-- {
		n := &s.idx.nodes[id]
		var st nodeState
		switch n.kind {
		case kAnd, kOr:
			decisive, otherwise := junction(n.kind)
			for _, kid := range n.kids {
				st.tally(e.nodes[kid].val, decisive, 1)
			}
			st.val = st.derive(decisive, otherwise)
		case kAtom:
			st.val = s.evalAtom(n.atom, false)
		case kCollect:
			st.val = triUnknown
		}
		e.nodes[id] = st
	}
}

// update re-evaluates the atoms naming slot's variable, in pre-order, and
// carries each change up to the root. With stop set it returns as soon as
// the root is false.
func (s *Solver) update(slot int, stop bool) {
	e := s.ev
	for _, id := range s.idx.varAtoms[s.idx.varOf[slot]] {
		if v := s.evalAtom(s.idx.nodes[id].atom, false); v != e.nodes[id].val {
			s.set(id, v)
			if stop && e.nodes[0].val == triFalse {
				return
			}
		}
	}
}

// set gives node id the value v and passes the change up through its
// ancestors' kid counts until an ancestor's value holds. Every state it
// overwrites goes on the trail.
func (s *Solver) set(id int, v tribool) {
	e := s.ev
	old := e.nodes[id].val
	e.trail = append(e.trail, trailEntry{int32(id), e.nodes[id]})
	e.nodes[id].val = v
	for p := s.idx.parent[id]; p >= 0; p = s.idx.parent[p] {
		st := &e.nodes[p]
		e.trail = append(e.trail, trailEntry{int32(p), *st})
		decisive, otherwise := junction(s.idx.nodes[p].kind)
		st.tally(old, decisive, -1)
		st.tally(v, decisive, 1)
		next := st.derive(decisive, otherwise)
		if next == st.val {
			return
		}
		old, v, st.val = st.val, next, next
	}
}

// undo pops the trail back to mark, restoring the states it recorded.
func (s *Solver) undo(mark int) {
	e := s.ev
	for i := len(e.trail) - 1; i >= mark; i-- {
		e.nodes[e.trail[i].id] = e.trail[i].prev
	}
	e.trail = e.trail[:mark]
}

// relevantID reports whether variable vid can still influence the truth of
// the formula under the current partial assignment. Three-valued evaluation
// is monotone in assignments — decided nodes (true or false) stay decided —
// so only Unknown regions of the formula can be affected by the variable.
func (s *Solver) relevantID(id int, vid int) bool {
	if !s.idx.varIn[id][vid] || s.value(id) != triUnknown {
		return false
	}
	n := &s.idx.nodes[id]
	switch n.kind {
	case kAnd, kOr:
		for _, kid := range n.kids {
			if s.relevantID(kid, vid) {
				return true
			}
		}
		return false
	}
	return n.kind == kAtom || n.kind == kCollect
}

// finish validates the full assignment including collects, then records the
// solution. Collect bindings are installed into the live assignment while
// the remainder of the formula evaluates, so list atomics following a
// collect (e.g. a kernel over collected reads) can see them.
func (s *Solver) finish() {
	// Canonicalize: variables whose assignment no longer influences the
	// formula (their occurrences all sit in decided subformulas) are reset
	// to the Unconstrained marker so equivalent solutions collapse. Each
	// change propagates in full, and one undo to mark restores the node
	// values before returning to the search.
	mark := len(s.ev.trail)
	s.saved = s.saved[:0]
	for k, v := range s.idx.vars {
		val := s.assign[v]
		if val == nil || val == Unconstrained {
			continue
		}
		held := len(s.ev.trail)
		s.assign[v] = nil
		s.update(v, false)
		if s.relevantID(0, k) {
			// The states before the unbind are those of val.
			s.assign[v] = val
			s.undo(held)
		} else {
			s.saved = append(s.saved, binding{v, val})
			s.assign[v] = Unconstrained
			s.update(v, false)
		}
		if checkState != nil {
			checkState(s, "canonicalize")
		}
	}

	s.extra = s.extra[:0]
	ok := s.evalFinal(0)
	// The collect bindings leave the live assignment but stay in the row.
	s.row = append(s.row[:0], s.assign...)
	for _, slot := range s.extra {
		s.assign[slot] = nil
	}
	if ok == triTrue {
		s.key = s.key[:0]
		for slot, v := range s.row {
			if v != nil {
				s.key = s.appendKey(s.key, slot, v)
			}
		}
	}
	s.undo(mark)
	for _, b := range s.saved {
		s.assign[b.slot] = b.val
	}
	if checkState != nil {
		checkState(s, "finish")
	}
	// Deduplicate identical solutions arising from overlapping disjunctions.
	if ok != triTrue {
		return
	}
	if _, dup := s.solKeys[string(s.key)]; dup {
		return
	}
	s.solKeys[string(s.key)] = struct{}{}
	s.rows = append(s.rows, slices.Clone(s.row))
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

// evalFinal evaluates with all regular variables assigned, resolving
// collect nodes and binding their solutions into the assignment (recorded in
// extra).
func (s *Solver) evalFinal(id int) tribool {
	n := &s.idx.nodes[id]
	switch n.kind {
	case kAnd:
		for _, kid := range n.kids {
			if s.evalFinal(kid) != triTrue {
				return triFalse
			}
		}
		return triTrue
	case kOr:
		for _, kid := range n.kids {
			if s.evalFinal(kid) == triTrue {
				return triTrue
			}
		}
		return triFalse
	case kAtom:
		return s.evalAtom(n.atom, true)
	case kCollect:
		return s.resolveCollect(n.coll)
	}
	return triFalse
}

// bindExtra installs one collect binding into the live assignment.
func (s *Solver) bindExtra(slot int, v ir.Value) {
	for len(s.assign) <= slot {
		s.assign = append(s.assign, nil)
	}
	s.assign[slot] = v
	s.extra = append(s.extra, slot)
}

// resolveCollect enumerates all solutions of the collect body and binds the
// indexed instances. Results are memoized on the values of the body's bound
// outer variables: identical outer contexts resolve identically.
func (s *Solver) resolveCollect(c *collect) tribool {
	if c.proto == nil {
		return triFalse
	}
	key := binary.AppendUvarint(s.key[:0], uint64(c.id))
	for _, slot := range c.protoVars {
		if v := slotValue(s.assign, slot); v != nil {
			key = s.appendKey(key, slot, v)
		}
	}
	s.key = key
	if res, hit := s.collectMemo[string(key)]; hit {
		if !res.ok {
			return triFalse
		}
		for _, b := range res.bindings {
			s.bindExtra(b.slot, b.val)
		}
		return triTrue
	}
	memo := &collectResult{}
	if s.collectMemo == nil {
		s.collectMemo = map[string]*collectResult{}
	}
	s.collectMemo[string(key)] = memo

	// Variables already bound by the outer assignment stay fixed; the rest
	// are solved for.
	idx := c.subIndex(s.idx.syms, s.assign)
	sub := s.subSolver(idx)
	sub.search()
	if sub.cancelled {
		s.cancelled = true
	}
	s.lateBinds += sub.lateBinds
	s.Steps += sub.Steps
	if len(sub.rows) < c.Min {
		return triFalse
	}
	// Deterministic order: by the textual rendering of the free variables'
	// values.
	type keyedRow struct {
		key string
		row []ir.Value
	}
	rows := make([]keyedRow, len(sub.rows))
	for i, row := range sub.rows {
		var b strings.Builder
		for _, slot := range idx.vars {
			if v := slotValue(row, slot); v != nil {
				b.WriteString(v.Operand())
				b.WriteString("|")
			}
		}
		rows[i] = keyedRow{b.String(), row}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	for j, r := range rows {
		inst := c.instance(s.idx.syms, j)
		if !inst.ok {
			return triFalse
		}
		for i, pv := range c.protoVars[:c.nBody] {
			if v := slotValue(r.row, pv); v != nil && pv < len(idx.varOf) && idx.varOf[pv] >= 0 {
				s.bindExtra(inst.slots[i], v)
				memo.bindings = append(memo.bindings, binding{inst.slots[i], v})
			}
		}
	}
	memo.ok = true
	return triTrue
}

// subSolver readies the reusable solver for one collect body resolution: a
// fresh search over idx starting from the current assignment.
func (s *Solver) subSolver(idx *probIndex) *Solver {
	sub := s.sub
	if sub == nil {
		sub = &Solver{info: s.info, fn: s.fn}
		s.sub = sub
	}
	sub.idx = idx
	sub.assign = append(sub.assign[:0], s.assign...)
	clear(sub.collectMemo)
	sub.Cancel, sub.cancelled, sub.lateBinds, sub.Steps = s.Cancel, false, 0, 0
	return sub
}

// appendKey appends one binding to a solution or collect key: the slot and
// the value's number, as uvarints.
func (s *Solver) appendKey(key []byte, slot int, v ir.Value) []byte {
	key = binary.AppendUvarint(key, uint64(slot))
	return binary.AppendUvarint(key, uint64(s.fn.valueID(v)))
}
