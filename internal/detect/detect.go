// Package detect runs the idiom library over IR modules, de-duplicates and
// prioritizes solutions, and reports idiom instances — the "Constraints
// Solver" plus bookkeeping stage of the paper's Figure 1 workflow.
//
// Two drivers are provided: Module/Function solve sequentially, while Engine
// (and the Modules convenience wrapper) precompiles every idiom's constraint
// problem once and fans the independent (function × idiom) solves out over a
// worker pool. Both produce byte-identical results: solutions are re-sorted
// deterministically and claim-based de-duplication always runs serially in
// roster precedence order. Long-lived callers use Engine.Stream instead: each
// blocking Stream.Detect call detects one module on the engine's shared pool,
// so the solves of concurrent callers interleave.
//
// Every driver solves every (function × idiom) pair. The only scheduling
// policy is the stream's task order (deadline, then analysis before solves,
// then FIFO; see Stream), and it never changes output.
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
	// Idioms restricts detection to the named idioms (empty = all).
	Idioms []string
	// Workers bounds the worker pool of the parallel engine (Engine,
	// Modules). Zero or negative means GOMAXPROCS. Sequential Module and
	// Function ignore it.
	Workers int
	// Memo selects the solver memoization cache the engine keys solves into:
	// nil means the process-wide constraint.SharedSolveCache. Supply a
	// private cache for isolated hit/miss accounting (tests, benchmarks).
	Memo *constraint.SolveCache
	// NoMemo disables solver memoization entirely (overriding Memo). Table 2
	// uses this so its compile-time overhead rows keep measuring fresh
	// constraint solves.
	NoMemo bool
}

// roster resolves the idiom set for the options. The default set is the
// paper's; extensions (the §9 future-work idioms, e.g. Map) participate only
// when named explicitly.
func roster(opts Options) []idioms.Idiom {
	all := idioms.All()
	if len(opts.Idioms) == 0 {
		return all
	}
	out := all[:0]
	for _, n := range opts.Idioms {
		if idm, ok := idioms.ByName(n); ok {
			out = append(out, idm)
		}
	}
	return out
}

// Module detects idioms in every function of the module.
func Module(mod *ir.Module, opts Options) (*Result, error) {
	res := &Result{}
	start := time.Now()
	for _, fn := range mod.Functions {
		if err := function(fn, opts, res); err != nil {
			return nil, err
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// Function detects idioms in a single function.
func Function(fn *ir.Function, opts Options) (*Result, error) {
	res := &Result{}
	start := time.Now()
	if err := function(fn, opts, res); err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

func function(fn *ir.Function, opts Options, res *Result) error {
	info := analysis.Analyze(fn)
	ros := roster(opts)
	per := make([]idiomSolutions, len(ros))
	for i, idm := range ros {
		prob, err := idioms.Problem(idm.Top)
		if err != nil {
			return err
		}
		per[i] = solveIdiom(nil, idm, prob, info)
	}
	merge(fn, per, res)
	return nil
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

// claimSet derives the ownership set of a solution: every loop guard it
// spans plus its defining store. Claiming guards prevents an inner loop of a
// GEMM from also being reported as a reduction, and claiming the store keeps
// equivalent solutions (commutative rediscoveries) from double counting.
func claimSet(idm idioms.Idiom, sol constraint.Solution) []*ir.Instruction {
	var out []*ir.Instruction
	add := func(name string) {
		if v, ok := sol[name]; ok {
			if in, isInstr := v.(*ir.Instruction); isInstr {
				out = append(out, in)
			}
		}
	}
	if idm.Scheme != "" {
		// Pack-registered idioms derive their ownership set from the
		// declared transform scheme: the canonical loop guards the scheme
		// consumes plus the defining store, mirroring the per-name table
		// below — so pack idioms participate in claim de-duplication like
		// built-ins instead of double-reporting commutative rediscoveries.
		// The scheme wins over the name table, exactly as in
		// transform.Apply, so a pack idiom reusing a built-in name claims
		// what its own scheme consumes.
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
	switch idm.Name {
	case "GEMM":
		add("loop[0].guard")
		add("loop[1].guard")
		add("loop[2].guard")
		add("output.store")
	case "SPMV":
		add("guard")
		add("inner.guard")
		add("output.store")
	case "Stencil3":
		add("loop[0].guard")
		add("loop[1].guard")
		add("loop[2].guard")
		add("store")
	case "Stencil2":
		add("loop[0].guard")
		add("loop[1].guard")
		add("store")
	case "Stencil1":
		add("guard")
		add("store")
	case "Histogram":
		add("guard")
		add("store")
	case "Reduction":
		add("guard")
		add("old_value")
	case "Map":
		add("guard")
		add("out.store")
	}
	return out
}
