package analysis

// Natural-loop structure queries over the instruction-level CFG. The
// similarity scorer consumes these to characterize a function's loop nest
// without re-deriving dominance; they are exact for the reducible CFGs the
// mini-C frontend emits (every loop is a counted For with a single back edge).

// LoopHeaders returns the indices (into Instrs) of natural-loop headers: the
// targets of CFG back edges, i.e. instructions h with an incoming edge i→h
// where h dominates i. Each source-level loop contributes exactly one header.
func (a *Info) LoopHeaders() []int {
	var out []int
	seen := map[int]bool{}
	for i, ss := range a.succs {
		for _, h := range ss {
			if a.dom[i].has(h) && !seen[h] {
				seen[h] = true
				out = append(out, h)
			}
		}
	}
	return out
}

// LoopDepth returns the maximum loop-nest depth of the function: the largest
// number of natural loops any single instruction belongs to. Sequential
// sibling loops each count depth 1; straight-line code reports 0. Membership
// is the textbook natural loop of each back edge — the header plus every
// node that reaches the back-edge source without passing through the header.
func (a *Info) LoopDepth() int {
	depth := make([]int, len(a.Instrs))
	counted := map[int]bool{} // headers already expanded (one loop per header)
	for i, ss := range a.succs {
		for _, h := range ss {
			if !a.dom[i].has(h) || counted[h] {
				continue
			}
			counted[h] = true
			// Backward walk from every back-edge source of h, stopping at h.
			in := map[int]bool{h: true}
			var stack []int
			for j, tt := range a.succs {
				for _, t := range tt {
					if t == h && a.dom[j].has(h) && !in[j] {
						in[j] = true
						stack = append(stack, j)
					}
				}
			}
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range a.preds[n] {
					if !in[p] {
						in[p] = true
						stack = append(stack, p)
					}
				}
			}
			for n := range in {
				depth[n]++
			}
		}
	}
	max := 0
	for _, d := range depth {
		if d > max {
			max = d
		}
	}
	return max
}
