package constraint

import (
	"fmt"
	"slices"

	"repro/internal/analysis"
)

// EncodePayloadForTest encodes one solve outcome as its spill payload.
func EncodePayloadForTest(sols []Solution, steps int, info *analysis.Info) ([]byte, bool) {
	return encodePayload(sols, steps, info)
}

// ReencodePayloadForTest decodes a spill payload onto info and encodes the
// result again; ok is false when the decoder rejects the payload.
func ReencodePayloadForTest(payload []byte, info *analysis.Info) ([]byte, bool) {
	sols, steps, ok := decodePayload(payload, info, nil)
	if !ok {
		return nil, false
	}
	return encodePayload(sols, steps, info)
}

// GreedyOrdersForTest returns the greedy solving order of a problem compiled
// with OrderAppearance, and the order the reference loop gives.
func GreedyOrdersForTest(p *Problem) (got, want []string) {
	return orderVariables(p.Root, p.Vars, OrderGreedy), referenceGreedyOrder(p.Root, p.Vars)
}

// referenceGreedyOrder is the greedy ordering as first written: every pick
// scores every atom for every unchosen variable. The indexed orderVariables
// must reproduce it exactly, ties included, since the order sets the
// solver's steps.
func referenceGreedyOrder(root Node, appearance []string) []string {
	atoms := gatherAtoms(root)
	chosen := map[string]bool{}
	var out []string
	pos := map[string]int{}
	for i, v := range appearance {
		pos[v] = i
	}
	for len(out) < len(appearance) {
		best := ""
		bestScore := -1
		for _, v := range appearance {
			if chosen[v] {
				continue
			}
			score := 0
			for _, at := range atoms {
				s := generatorScore(at, v, chosen)
				if s > score {
					score = s
				}
			}
			if score > bestScore || score == bestScore && best != "" && pos[v] < pos[best] {
				bestScore = score
				best = v
			}
		}
		chosen[best] = true
		out = append(out, best)
	}
	return out
}

// CheckNodeStatesForTest makes every solver, until the returned func is
// called, compare each node's maintained value and kid counts with a
// from-scratch three-valued evaluation of its assignment after every bind,
// unbind, canonicalization step and finish. A bind that turned the root
// false is exempt: it skips the variable's remaining atoms on purpose, and
// its caller unbinds at once.
// report receives each difference; checks is the number of states compared.
// Solves must not run concurrently while the check is installed.
func CheckNodeStatesForTest(report func(msg string)) (checks func() int, remove func()) {
	n := 0
	var ref []tribool
	checkState = func(s *Solver, op string) {
		if op == "pruning bind" {
			return
		}
		n++
		ref = referenceValues(s, ref)
		for id := range s.idx.nodes {
			nd := &s.idx.nodes[id]
			var want nodeState
			want.val = ref[id]
			if nd.kind == kAnd || nd.kind == kOr {
				decisive := triFalse
				if nd.kind == kOr {
					decisive = triTrue
				}
				for _, kid := range nd.kids {
					switch ref[kid] {
					case decisive:
						want.dec++
					case triUnknown:
						want.unk++
					}
				}
			}
			if got := s.ev.nodes[id]; got != want {
				report(fmt.Sprintf("after %s: node %d (kind %d) holds %+v, a fresh evaluation gives %+v",
					op, id, nd.kind, got, want))
				return
			}
		}
	}
	return func() int { return n }, func() { checkState = nil }
}

// referenceValues evaluates every node of s's formula from scratch under
// its current assignment, into buf: a conjunction is false when a kid is
// false, else unknown when a kid is unknown, else true; a disjunction is
// the dual; collects are unknown.
func referenceValues(s *Solver, buf []tribool) []tribool {
	vals := slices.Grow(buf[:0], len(s.idx.nodes))[:len(s.idx.nodes)]
	var eval func(id int) tribool
	eval = func(id int) tribool {
		nd := &s.idx.nodes[id]
		out := triFalse
		switch nd.kind {
		case kAnd:
			out = triTrue
			for _, kid := range nd.kids {
				switch v := eval(kid); {
				case v == triFalse:
					out = triFalse
				case v == triUnknown && out == triTrue:
					out = triUnknown
				}
			}
		case kOr:
			for _, kid := range nd.kids {
				switch v := eval(kid); {
				case v == triTrue:
					out = triTrue
				case v == triUnknown && out == triFalse:
					out = triUnknown
				}
			}
		case kAtom:
			out = s.evalAtom(nd.atom, false)
		case kCollect:
			out = triUnknown
		}
		vals[id] = out
		return out
	}
	eval(0)
	return vals
}

// CountBindsForTest makes every solver, until the returned func is called,
// count its binds and, among them, the pruning binds: those that turned the
// root false, so that the candidate was rejected at once.
// Solves must not run concurrently while the count is installed.
func CountBindsForTest() (counts func() (binds, pruning int), remove func()) {
	var binds, pruning int
	checkState = func(_ *Solver, op string) {
		switch op {
		case "bind":
			binds++
		case "pruning bind":
			binds++
			pruning++
		}
	}
	return func() (int, int) { return binds, pruning }, func() { checkState = nil }
}

// CanonicalKeyForTest renders a solution as a stable string, for comparing
// solution sets across solves.
var CanonicalKeyForTest = canonicalKey
