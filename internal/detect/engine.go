package detect

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/constraint"
	"repro/internal/idioms"
	"repro/internal/ir"
	"repro/internal/similarity"
)

// Engine is the concurrent batch detector. It precompiles every idiom's IDL
// constraint problem exactly once at construction (including the solver's
// static node index, so workers never contend on the compile caches) and
// fans detection out over a worker pool: function analysis and each
// (function × idiom) solve are independent tasks. A serial merge stage then
// re-sorts and claim-deduplicates, so results are byte-identical to the
// sequential Module driver regardless of worker count.
type Engine struct {
	roster    []idioms.Idiom
	probs     []*constraint.Problem // parallel to roster
	rosterIdx map[string]int        // idiom name -> roster position
	workers   int

	// memo is the solver memoization cache (nil when disabled): completed
	// (function-fingerprint × problem) solves are stored position-encoded, so
	// re-detecting an identical function shape — same module again, or a
	// recompile of the same source — rehydrates the cached solutions instead
	// of re-running the backtracking search.
	memo                 *constraint.SolveCache
	memoHits, memoMisses atomic.Int64

	// sigs are the per-roster-idiom similarity signatures, compiled once
	// alongside the problems; only explain-mode near misses read them.
	sigs []*similarity.Signature // parallel to roster
}

// NewEngine compiles the idiom roster for opts and sizes the worker pool.
// Workers <= 0 defaults to GOMAXPROCS.
func NewEngine(opts Options) (*Engine, error) {
	ros := roster(opts)
	e := &Engine{
		roster:    ros,
		probs:     make([]*constraint.Problem, len(ros)),
		sigs:      make([]*similarity.Signature, len(ros)),
		rosterIdx: make(map[string]int, len(ros)),
		workers:   opts.Workers,
	}
	for i, idm := range ros {
		e.rosterIdx[idm.Name] = i
	}
	switch {
	case opts.NoMemo:
		// leave e.memo nil
	case opts.Memo != nil:
		e.memo = opts.Memo
	default:
		e.memo = constraint.SharedSolveCache()
	}
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	probs, err := idioms.Problems(ros)
	if err != nil {
		return nil, err
	}
	for i, idm := range ros {
		prob := probs[idm.Name]
		constraint.Prepare(prob)
		e.probs[i] = prob
		e.sigs[i] = similarity.Compile(idm.Name, prob)
	}
	return e, nil
}

// Workers reports the configured pool size.
func (e *Engine) Workers() int { return e.workers }

// MemoStats reports this engine's solver memoization counters: hits are
// (function × idiom) solves served from the cache, misses are fresh
// backtracking searches. Both stay zero when memoization is disabled.
func (e *Engine) MemoStats() (hits, misses int64) {
	return e.memoHits.Load(), e.memoMisses.Load()
}

// Memo exposes the engine's solve cache (nil when memoization is disabled),
// for entry-count and eviction introspection by serving layers.
func (e *Engine) Memo() *constraint.SolveCache { return e.memo }

// Roster reports the engine's idiom roster in precedence order.
func (e *Engine) Roster() []idioms.Idiom {
	return append([]idioms.Idiom(nil), e.roster...)
}

// Resolved pairs an idiom with its compiled constraint problem. It is the
// unit of a per-submission roster: serving layers resolve a request's idiom
// pack against an immutable registry snapshot once at intake, and detection
// then solves exactly those problems — the engine's own precompiled roster
// is only the default. Order is merge precedence, as everywhere else.
type Resolved struct {
	Idiom idioms.Idiom
	Prob  *constraint.Problem
	// Sig is the idiom's similarity signature, read only by explain-mode
	// near misses (engine roster entries always carry one; pack rosters carry
	// the signature compiled at registration). A nil signature scores 1.
	Sig *similarity.Signature
}

// resolved maps engine roster positions to Resolved entries.
func (e *Engine) resolved(ris []int) []Resolved {
	out := make([]Resolved, len(ris))
	for i, ri := range ris {
		out[i] = Resolved{Idiom: e.roster[ri], Prob: e.probs[ri], Sig: e.sigs[ri]}
	}
	return out
}

// subset resolves idiom names to roster positions, preserving the request
// order (which becomes merge precedence, exactly as the sequential driver's
// Options.Idioms does). Unknown names are skipped. A nil names list means the
// engine's full roster.
func (e *Engine) subset(names []string) []int {
	if names == nil {
		out := make([]int, len(e.roster))
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, len(names))
	for _, n := range names {
		if ri, ok := e.rosterIdx[n]; ok {
			out = append(out, ri)
		}
	}
	return out
}

// fingerprint digests an analysed function for memo keying; the zero
// Fingerprint is returned (and never used) when memoization is off.
func (e *Engine) fingerprint(info *analysis.Info) constraint.Fingerprint {
	if e.memo == nil {
		return constraint.Fingerprint{}
	}
	return constraint.FingerprintInfo(info)
}

// solveResolved runs one (function × idiom) task — an explicit (idiom,
// problem) pair, the shared path of the engine's own roster and
// per-submission pack rosters — through the memo cache. The solver is
// deterministic, so a hit returns exactly what the skipped search would
// have: same solutions, same order after sortSolutions, same step count.
// Memo keys include the problem (and its pack version), so pack solves
// share the same cache without ever colliding across registrations. done,
// when non-nil, aborts the backtracking search once closed; an aborted
// (incomplete) outcome is marked and never memoized, so the memo only ever
// stores complete enumerations.
func (e *Engine) solveResolved(done <-chan struct{}, r Resolved, info *analysis.Info, fp constraint.Fingerprint) idiomSolutions {
	if e.memo == nil {
		return solveIdiom(done, r.Idiom, r.Prob, info)
	}
	if sols, steps, ok := e.memo.Get(r.Prob, fp, info); ok {
		e.memoHits.Add(1)
		sortSolutions(sols)
		return idiomSolutions{idiom: r.Idiom, sols: sols, steps: steps}
	}
	e.memoMisses.Add(1)
	ps := solveIdiom(done, r.Idiom, r.Prob, info)
	if !ps.aborted {
		e.memo.Put(r.Prob, fp, info, ps.sols, ps.steps)
	}
	return ps
}

// Module detects idioms in one module using the worker pool.
func (e *Engine) Module(mod *ir.Module) (*Result, error) {
	rs, err := e.Modules([]*ir.Module{mod})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// Modules detects idioms across a batch of modules, returning one Result per
// module (index-aligned with mods). Every module runs as its own Detect call
// on a private Stream over the engine's pool, one goroutine per module, so
// all (function × idiom) solves across the whole batch interleave — small
// modules do not serialize the pipeline. With Workers: 1 the pool is one
// worker, so every stage task and every solve runs sequentially by
// construction (the paper's Table 2 sequential metrics are unaffected).
// Because solves interleave across modules, per-module wall time is not
// meaningful here: every Result carries the whole batch's Elapsed (batch
// semantics, kept deliberately). Use Stream for true per-module wall times.
func (e *Engine) Modules(mods []*ir.Module) ([]*Result, error) {
	start := time.Now()
	st := e.Stream()
	out := make([]*Result, len(mods))
	var wg sync.WaitGroup
	for i, mod := range mods {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A submission without a context never fails.
			out[i], _ = st.Detect(Submission{Mod: mod, Start: start})
		}()
	}
	wg.Wait()
	st.Close()
	elapsed := time.Since(start)
	for _, r := range out {
		r.Elapsed = elapsed
	}
	return out, nil
}

// nearMisses builds a module's explain diagnostics: for every roster idiom
// without a detected instance, the best-scoring function with the
// signature's feature deltas and rejecting constraint family; the top
// NearMissTopK rows by score are reported. Deterministic: scores are pure
// arithmetic over features and roster order breaks ties.
func nearMisses(ros []Resolved, fns []*ir.Function, feats []*similarity.Features, res *Result) []NearMiss {
	matched := map[string]bool{}
	for _, inst := range res.Instances {
		matched[inst.Idiom.Name] = true
	}
	var out []NearMiss
	for _, r := range ros {
		if matched[r.Idiom.Name] || len(fns) == 0 {
			continue
		}
		best, bi := -1.0, 0
		for fi := range fns {
			if sc := r.Sig.Score(feats[fi]); sc > best {
				best, bi = sc, fi
			}
		}
		nm := NearMiss{
			Idiom:    r.Idiom.Name,
			Function: fns[bi].Ident,
			Score:    best,
		}
		nm.Deltas, nm.Family = r.Sig.Explain(feats[bi])
		out = append(out, nm)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	if len(out) > NearMissTopK {
		out = out[:NearMissTopK]
	}
	return out
}

// Modules is the batch convenience API: it builds an Engine for opts and
// detects idioms across all modules concurrently.
func Modules(mods []*ir.Module, opts Options) ([]*Result, error) {
	eng, err := NewEngine(opts)
	if err != nil {
		return nil, err
	}
	return eng.Modules(mods)
}
