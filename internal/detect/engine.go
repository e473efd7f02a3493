package detect

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/constraint"
	"repro/internal/idioms"
	"repro/internal/ir"
	"repro/internal/similarity"
)

// Engine is the concurrent batch detector. Its default roster is resolved
// once at construction from the built-in pack, whose problems (and the
// solver's static node indexes) were compiled exactly once, so workers never
// contend on compile caches. It fans detection out over a worker pool:
// function analysis and each (function × idiom) solve are independent
// tasks. A serial merge stage then re-sorts and claim-deduplicates, so
// results are byte-identical regardless of worker count.
type Engine struct {
	// roster is what a submission without its own Roster detects.
	roster  []Resolved
	workers int

	// memo is the solver memoization cache (nil when disabled): completed
	// (function-fingerprint × problem) solves are stored position-encoded, so
	// re-detecting an identical function shape — same module again, or a
	// recompile of the same source — decodes the cached solutions instead
	// of re-running the backtracking search.
	memo *constraint.SolveCache
}

// NewEngine resolves the default roster for opts against the built-in pack
// and sizes the worker pool. Workers <= 0 defaults to GOMAXPROCS.
func NewEngine(opts Options) (*Engine, error) {
	ros, err := Resolve(nil, opts.Idioms)
	if err != nil {
		return nil, fmt.Errorf("detect: %w", err)
	}
	e := &Engine{roster: ros, workers: opts.Workers, memo: opts.Memo}
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	return e, nil
}

// Workers reports the configured pool size.
func (e *Engine) Workers() int { return e.workers }

// MemoStats reports the solver memoization counters of the engine's cache:
// hits are (function × idiom) solves served from it, misses are fresh
// backtracking searches. Both stay zero when memoization is disabled.
func (e *Engine) MemoStats() (hits, misses int64) {
	if e.memo == nil {
		return 0, 0
	}
	return e.memo.Stats()
}

// Memo exposes the engine's solve cache (nil when memoization is disabled),
// for entry-count and eviction introspection by serving layers.
func (e *Engine) Memo() *constraint.SolveCache { return e.memo }

// Resolved pairs an idiom with its compiled constraint problem. It is the
// unit of a roster: serving layers resolve a request's idioms against an
// immutable pack once at intake (Resolve), and detection then solves exactly
// those problems. Order is merge precedence, as everywhere else.
type Resolved struct {
	Idiom idioms.Idiom
	Prob  *constraint.Problem
	// Sig is the idiom's similarity signature, compiled with the pack and
	// read only by explain-mode near misses. A nil signature scores 1.
	Sig *similarity.Signature
}

// Resolve builds a roster from a compiled pack; a nil pack means the
// built-in library (idioms.Builtin). Names resolve in the order given,
// which becomes merge precedence. No names means the pack's default roster:
// every idiom but the extensions, so the paper's seven for the built-in pack
// and the whole roster of a tenant pack. An unknown name is an error.
func Resolve(p *idioms.Pack, names []string) ([]Resolved, error) {
	if p == nil {
		var err error
		if p, err = idioms.Builtin(); err != nil {
			return nil, err
		}
	}
	if len(names) == 0 {
		names = nil
		for _, idm := range p.Idioms {
			if !idm.Extension {
				names = append(names, idm.Name)
			}
		}
	}
	out := make([]Resolved, len(names))
	for i, n := range names {
		idm, ok := p.Idiom(n)
		if !ok {
			return nil, fmt.Errorf("unknown idiom %q", n)
		}
		prob, _ := p.Problem(n)
		sig, _ := p.Signature(n)
		out[i] = Resolved{Idiom: idm, Prob: prob, Sig: sig}
	}
	return out, nil
}

// fingerprint digests an analysed function for memo keying; the zero
// Fingerprint is returned (and never used) when memoization is off.
func (e *Engine) fingerprint(info *analysis.Info) constraint.Fingerprint {
	if e.memo == nil {
		return constraint.Fingerprint{}
	}
	return constraint.FingerprintInfo(info)
}

// solveResolved runs one (function × idiom) task — one roster entry —
// through the memo cache. The solver is
// deterministic, so a hit returns exactly what the skipped search would
// have: same solutions, same order after sortSolutions, same step count.
// Memo keys are the problem's ID, a digest of its IDL source, so packs and
// built-ins share one cache without colliding across sources. done,
// when non-nil, aborts the backtracking search once closed; an aborted
// (incomplete) outcome is marked and never memoized, so the memo only ever
// stores complete enumerations.
func (e *Engine) solveResolved(done <-chan struct{}, r Resolved, info *analysis.Info, fp constraint.Fingerprint) idiomSolutions {
	if e.memo == nil {
		return solveIdiom(done, r.Idiom, r.Prob, info)
	}
	if sols, steps, ok := e.memo.Get(r.Prob, fp, info); ok {
		sortSolutions(sols)
		return idiomSolutions{idiom: r.Idiom, sols: sols, steps: steps}
	}
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
// modules do not serialize the batch. With Workers: 1 the pool is one
// worker, so every stage task and every solve runs sequentially by
// construction (the paper's Table 2 sequential metrics are unaffected).
// Because solves interleave across modules, per-module wall time is not
// meaningful here: every Result carries the whole batch's Elapsed (batch
// semantics, kept deliberately). Use Stream for true per-module wall times.
// A module whose detection panics gets a nil Result and an internal error;
// the errors of the batch are returned joined, beside the other results.
func (e *Engine) Modules(mods []*ir.Module) ([]*Result, error) {
	start := time.Now()
	st := e.Stream()
	out := make([]*Result, len(mods))
	errs := make([]error, len(mods))
	var wg sync.WaitGroup
	for i, mod := range mods {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = st.Detect(Submission{Mod: mod, Start: start})
		}()
	}
	wg.Wait()
	st.Close()
	elapsed := time.Since(start)
	for _, r := range out {
		if r != nil {
			r.Elapsed = elapsed
		}
	}
	return out, errors.Join(errs...)
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
