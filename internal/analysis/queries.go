package analysis

import (
	"repro/internal/ir"
)

// HasControlFlowTo reports whether there is a direct control flow edge from
// a to b in the instruction-granularity CFG.
func (a *Info) HasControlFlowTo(x, y *ir.Instruction) bool {
	i, ok := a.Index[x]
	if !ok {
		return false
	}
	j, ok := a.Index[y]
	if !ok {
		return false
	}
	for _, s := range a.succs[i] {
		if s == j {
			return true
		}
	}
	return false
}

// Successors appends the CFG successors of x to dst and returns the result.
func (a *Info) Successors(dst []ir.Value, x *ir.Instruction) []ir.Value {
	if i, ok := a.Index[x]; ok {
		for _, s := range a.succs[i] {
			dst = append(dst, a.Instrs[s])
		}
	}
	return dst
}

// Predecessors appends the CFG predecessors of x to dst and returns the
// result.
func (a *Info) Predecessors(dst []ir.Value, x *ir.Instruction) []ir.Value {
	if i, ok := a.Index[x]; ok {
		for _, p := range a.preds[i] {
			dst = append(dst, a.Instrs[p])
		}
	}
	return dst
}

// Dominates reports whether x dominates y (reflexively).
func (a *Info) Dominates(x, y *ir.Instruction) bool {
	i, ok := a.Index[x]
	if !ok {
		return false
	}
	j, ok := a.Index[y]
	if !ok {
		return false
	}
	return a.dom[j].has(i)
}

// StrictlyDominates reports whether x dominates y and x != y.
func (a *Info) StrictlyDominates(x, y *ir.Instruction) bool {
	return x != y && a.Dominates(x, y)
}

// PostDominates reports whether x post-dominates y (reflexively).
func (a *Info) PostDominates(x, y *ir.Instruction) bool {
	i, ok := a.Index[x]
	if !ok {
		return false
	}
	j, ok := a.Index[y]
	if !ok {
		return false
	}
	return a.pdom[j].has(i)
}

// StrictlyPostDominates reports whether x post-dominates y and x != y.
func (a *Info) StrictlyPostDominates(x, y *ir.Instruction) bool {
	return x != y && a.PostDominates(x, y)
}

// HasDataFlowTo reports a direct def-use edge: y uses x as an operand.
func (a *Info) HasDataFlowTo(x ir.Value, y *ir.Instruction) bool {
	for _, op := range y.Ops {
		if op == x {
			return true
		}
	}
	return false
}

// Users returns the instructions that use v as an operand.
func (a *Info) Users(v ir.Value) []*ir.Instruction {
	return a.users[v]
}

// HasDependenceEdgeTo reports a dependence edge from x to y: either a direct
// def-use edge or a memory dependence (may-aliasing load/store pair).
func (a *Info) HasDependenceEdgeTo(x, y *ir.Instruction) bool {
	if a.HasDataFlowTo(x, y) {
		return true
	}
	i, ok := a.Index[x]
	if !ok {
		return false
	}
	j, ok := a.Index[y]
	if !ok {
		return false
	}
	for _, d := range a.memdeps[i] {
		if d == j {
			return true
		}
	}
	return false
}

// AllControlFlowPassesThrough reports whether every CFG path from `from` to
// `to` passes through `via`. It holds vacuously when `to` is unreachable
// from `from`. Paths are instruction paths; `via` on an endpoint counts.
func (a *Info) AllControlFlowPassesThrough(from, to, via *ir.Instruction) bool {
	if from == via || to == via {
		return true
	}
	i, ok := a.Index[from]
	if !ok {
		return true
	}
	j, ok := a.Index[to]
	if !ok {
		return true
	}
	v, ok := a.Index[via]
	if !ok {
		return false
	}
	// Reachability from `from` to `to` avoiding `via`.
	seen := newBitset(len(a.Instrs))
	seen.set(i)
	stack := []int{i}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == j {
			return false
		}
		for _, s := range a.succs[cur] {
			if s == v || seen.has(s) {
				continue
			}
			seen.set(s)
			stack = append(stack, s)
		}
	}
	return true
}

// AllDataFlowPassesThrough reports whether every def-use path from value x
// to value y passes through value via.
func (a *Info) AllDataFlowPassesThrough(x, y, via ir.Value) bool {
	if x == via || y == via {
		return true
	}
	seen := map[ir.Value]bool{x: true}
	stack := []ir.Value{x}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range a.users[cur] {
			uv := ir.Value(u)
			if uv == via {
				continue
			}
			if uv == y {
				return false
			}
			if !seen[uv] {
				seen[uv] = true
				stack = append(stack, uv)
			}
		}
	}
	return true
}

// AllFlowKilledBy reports whether every def-use path from any source to any
// sink passes through at least one killer. This implements IDL's
// "all flow from {..} to {..} is killed by {..}" atomic.
func (a *Info) AllFlowKilledBy(sources, sinks, killers []ir.Value) bool {
	killer := map[ir.Value]bool{}
	for _, k := range killers {
		killer[k] = true
	}
	sink := map[ir.Value]bool{}
	for _, s := range sinks {
		sink[s] = true
	}
	for _, src := range sources {
		if killer[src] {
			continue
		}
		if sink[src] {
			return false
		}
		seen := map[ir.Value]bool{src: true}
		stack := []ir.Value{src}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range a.users[cur] {
				uv := ir.Value(u)
				if killer[uv] {
					continue
				}
				if sink[uv] {
					return false
				}
				if !seen[uv] {
					seen[uv] = true
					stack = append(stack, uv)
				}
			}
		}
	}
	return true
}

// DataFlowDominates reports whether x dominates y in the data-flow graph:
// every def-use path from a data-flow root (function argument or operand-
// free instruction) to y passes through x. Reflexive.
func (a *Info) DataFlowDominates(x, y ir.Value) bool {
	if x == y {
		return true
	}
	// BFS backwards from y over operands, stopping at x. If we can reach a
	// root without meeting x, x does not dominate y.
	seen := map[ir.Value]bool{y: true}
	stack := []ir.Value{y}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		in, ok := cur.(*ir.Instruction)
		if !ok {
			// reached an argument or constant without passing x
			return false
		}
		if len(in.Ops) == 0 {
			return false
		}
		for _, op := range in.Ops {
			if op == x {
				continue
			}
			if !seen[op] {
				seen[op] = true
				stack = append(stack, op)
			}
		}
	}
	return true
}
