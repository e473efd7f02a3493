// Package detect runs the idiom library over IR modules, de-duplicates and
// prioritizes solutions, and reports idiom instances — the "Constraints
// Solver" plus bookkeeping stage of the paper's Figure 1 workflow.
//
// Idioms come from compiled packs (idioms.Pack); the built-in library is one
// more pack (idioms.Builtin). Resolve turns idiom names into a roster of
// (idiom, problem) pairs against a pack, and a submission solves exactly its
// roster. Claiming dispatches on each idiom's transform scheme, never on its
// name, so a tenant idiom and a built-in one are treated alike.
//
// There is one driver, Engine: it runs each module's compile, function
// analyses and independent (function × idiom) solves as tasks on a worker
// pool. Solutions are re-sorted deterministically and claim-based
// de-duplication always runs serially in roster precedence order, so
// results are byte-identical at any worker count; Workers: 1 without a Memo
// cache is the sequential reference. Long-lived callers use Engine.Stream: each
// blocking Stream.Detect call detects one module on the engine's shared
// pool, so the tasks of concurrent callers interleave; Engine.Modules is a
// batch over a private stream.
//
// Every driver solves every (function × idiom) pair. The only scheduling
// policy is the stream's task order (per-client fairness, then deadline,
// then front end before solves, then FIFO; see Stream), and it never
// changes output.
package detect

import (
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/constraint"
	"repro/internal/idioms"
	"repro/internal/ir"
)

// Instance is one detected idiom occurrence.
type Instance struct {
	Idiom    idioms.Idiom
	Function *ir.Function
	Solution constraint.Solution
	// Claims are the instructions this instance owns for de-duplication:
	// loop guards and the defining store.
	Claims []*ir.Instruction
}

// Result aggregates detection over a module.
type Result struct {
	Instances []Instance
	// SolverSteps is the total backtracking step count (compile-time cost).
	SolverSteps int
	// Elapsed is the wall-clock detection time.
	Elapsed time.Duration
	// Mod is the detected module: the submission's own, or the one its
	// Compile thunk produced.
	Mod *ir.Module
	// NearMisses holds the explain-mode diagnostics: the top unmatched
	// idioms of the module with their similarity evidence. Only populated
	// when the submission asked for it (Submission.Explain).
	NearMisses []NearMiss
}

// NearMiss is one explain-mode diagnostic: an idiom the module did not
// match, paired with the best-scoring function and the reason the pair was
// rejected — the "this loop is 1 constraint away from GEMM" report.
type NearMiss struct {
	// Idiom is the unmatched idiom; Function the best-scoring function.
	Idiom    string
	Function string
	// Score is the signature similarity in [0, 1] (0 = provably impossible).
	Score float64
	// Deltas are the dominant feature differences, largest deficit first.
	Deltas []string
	// Family is the constraint family that rejected the pair: "opcode",
	// "control-flow", or "dataflow" (structure matched; the backtracking
	// search itself found no assignment).
	Family string
}

// NearMissTopK bounds the near-miss rows reported per module.
const NearMissTopK = 3

// CountByClass tallies instances per idiom class.
func (r *Result) CountByClass() map[idioms.Class]int {
	out := map[idioms.Class]int{}
	for _, inst := range r.Instances {
		out[inst.Idiom.Class]++
	}
	return out
}

// Options tune detection.
type Options struct {
	// Idioms names the engine's default roster, resolved against the
	// built-in pack in the order given (see Resolve). Empty means the
	// paper's seven idioms; an unknown name fails NewEngine.
	Idioms []string
	// Workers bounds the engine's worker pool. Zero or negative means
	// GOMAXPROCS; 1 runs every task of a call sequentially.
	Workers int
	// Memo is the solver memoization cache the engine keys solves into, and
	// the only one it uses; nil means no memoization, so every solve is a
	// fresh backtracking search (Table 2 relies on this). The engine's
	// MemoStats are this cache's counters.
	Memo *constraint.SolveCache
}

// idiomSolutions is the outcome of one independent (function × idiom) solve:
// the sorted candidate solutions plus the solver's step count. It is the unit
// of work the parallel engine distributes. aborted marks a solve cancelled
// mid-search; its solutions are incomplete and must not be merged or cached.
type idiomSolutions struct {
	idiom   idioms.Idiom
	sols    []constraint.Solution
	steps   int
	aborted bool
}

// solveIdiom runs one constraint problem over one analysed function and
// sorts the solutions deterministically. It touches no shared mutable state,
// so any number of solves may run concurrently against the same Info. done,
// when non-nil, cancels the backtracking search once closed; a cancelled
// solve reports aborted so it is never merged or memoized.
func solveIdiom(done <-chan struct{}, idm idioms.Idiom, prob *constraint.Problem, info *analysis.Info) idiomSolutions {
	solver := constraint.NewSolver(prob, info)
	solver.Cancel = done
	sols := solver.Solve()
	sortSolutions(sols)
	return idiomSolutions{idiom: idm, sols: sols, steps: solver.Steps, aborted: solver.Cancelled()}
}

// sortSolutions imposes the deterministic pre-claim order. Memo-rehydrated
// solution lists go through the same sort as fresh ones, so a cache hit
// cannot perturb downstream claiming.
func sortSolutions(sols []constraint.Solution) {
	sort.SliceStable(sols, func(i, j int) bool {
		return solutionOrder(sols[i]) < solutionOrder(sols[j])
	})
}

// merge runs claim-based de-duplication over one function's per-idiom
// solutions, in roster precedence order, appending surviving instances to
// res. It must stay serial per function: claims made by earlier (more
// specific) idioms suppress later overlapping solutions.
func merge(fn *ir.Function, per []idiomSolutions, res *Result) {
	claimed := map[*ir.Instruction]bool{}
	for _, ps := range per {
		res.SolverSteps += ps.steps
		for _, sol := range ps.sols {
			claims := claimSet(ps.idiom, sol)
			overlap := false
			for _, c := range claims {
				if claimed[c] {
					overlap = true
					break
				}
			}
			if overlap {
				continue
			}
			for _, c := range claims {
				claimed[c] = true
			}
			res.Instances = append(res.Instances, Instance{
				Idiom: ps.idiom, Function: fn, Solution: sol, Claims: claims,
			})
		}
	}
}

func solutionOrder(sol constraint.Solution) string {
	keys := make([]string, 0, len(sol))
	for k := range sol {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteString("=")
		b.WriteString(sol[k].Operand())
		b.WriteString(";")
	}
	return b.String()
}

// claimSet derives the ownership set of a solution from its idiom's
// transform scheme: every loop guard the scheme consumes plus the defining
// store. Claiming guards prevents an inner loop of a GEMM from also being
// reported as a reduction, and claiming the store keeps equivalent solutions
// (commutative rediscoveries) from double counting. The loop-body schemes
// name both store bindings in use ("store" for the stencils and Histogram,
// "out.store" for Map); a solution binds only one. An idiom without a scheme
// claims nothing.
func claimSet(idm idioms.Idiom, sol constraint.Solution) []*ir.Instruction {
	var out []*ir.Instruction
	add := func(name string) {
		if v, ok := sol[name]; ok {
			if in, isInstr := v.(*ir.Instruction); isInstr {
				out = append(out, in)
			}
		}
	}
	switch idm.Scheme {
	case "gemm":
		add("loop[0].guard")
		add("loop[1].guard")
		add("loop[2].guard")
		add("output.store")
	case "spmv":
		add("guard")
		add("inner.guard")
		add("output.store")
	case "reduction":
		add("guard")
		add("old_value")
	case "loopbody1":
		add("guard")
		add("store")
		add("out.store")
	case "loopbody2":
		add("loop[0].guard")
		add("loop[1].guard")
		add("store")
		add("out.store")
	case "loopbody3":
		add("loop[0].guard")
		add("loop[1].guard")
		add("loop[2].guard")
		add("store")
		add("out.store")
	}
	return out
}
