package constraint

import (
	"container/list"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/ir"
)

// DefaultMemoMaxEntries bounds the shared solve cache (and every cache built
// with NewSolveCache). One entry is one (problem × function-fingerprint)
// solve outcome; the full 21-workload suite over the complete idiom roster
// occupies a few hundred entries, so the default leaves ample headroom for
// server traffic while capping worst-case memory on a long-lived process.
const DefaultMemoMaxEntries = 16384

// SolveCache memoizes complete solve outcomes keyed by (problem identity ×
// function fingerprint). Solutions are stored position-encoded (instruction
// and argument indices, constant/global payloads) rather than as live IR
// pointers, so a cached entry rehydrates onto any function with the same
// fingerprint — including a fresh recompile of the same source. The solver is
// deterministic, so a rehydrated entry is byte-identical (values, order and
// step count) to what a fresh solve of that function would produce.
//
// The cache is a size-bounded LRU: once it holds MaxEntries entries the
// least-recently-used (problem × fingerprint) is evicted on insert. Eviction
// only ever costs a future re-solve — a miss after eviction re-runs the
// deterministic search and re-caches the identical outcome — so results are
// unaffected by the bound.
type SolveCache struct {
	mu  sync.Mutex
	max int // <= 0: unbounded
	m   map[solveKey]*list.Element
	lru *list.List // front = most recently used

	// store, when attached, is the disk layer behind the LRU: Put spills
	// entries asynchronously, Get falls through to it on an in-memory miss,
	// and eviction spills synchronously if the async write hasn't landed
	// yet. Only problems with a non-zero StoreID participate.
	store SpillStore

	hits, misses, evictions atomic.Int64

	storeHits, storeMisses, syncSpills, decodeErrors atomic.Int64
}

// RecordCost is a no-op kept for an out-of-module caller.
//
// Deprecated: the solve-cost table it fed is gone (every (function × idiom)
// pair is solved, in queue order). Its last caller is perfbench's trace
// replay; delete it when that replay stops calling it.
func (c *SolveCache) RecordCost(*Problem, *analysis.Info, time.Duration) {}

type solveKey struct {
	prob *Problem
	// ver is the problem's PackVersion at lookup time. Problem pointer
	// identity already separates distinct compilations, but carrying the
	// pack version explicitly makes the cross-registration isolation
	// invariant structural: an entry stored under version N is unreachable
	// from any other version of the same pack name.
	ver uint64
	fp  Fingerprint
}

type lruEntry struct {
	key solveKey
	e   *memoEntry
	// spilled records that the entry's current bytes are durably on disk,
	// so eviction can drop it without a synchronous write. Set from the
	// async writer's completion callback, read on the eviction path.
	spilled atomic.Bool
}

// valRefKind discriminates the position-encoded value forms.
type valRefKind uint8

const (
	refInstr valRefKind = iota
	refArg
	refConst
	refGlobal
	refUnconstrained
)

// valRef is one position-encoded solution value.
type valRef struct {
	kind valRefKind
	idx  int    // refInstr: analysis.Info index; refArg: argument position
	ty   string // refConst/refGlobal: type rendering
	lit  string // refConst: literal rendering; refGlobal: symbol name
}

type memoBinding struct {
	name string
	ref  valRef
}

type memoEntry struct {
	sols  [][]memoBinding
	steps int
}

// NewSolveCache returns an empty cache bounded at DefaultMemoMaxEntries.
// Engines that need isolated hit/miss accounting (tests, benchmarks) build
// their own; everyone else shares SharedSolveCache.
func NewSolveCache() *SolveCache {
	return NewSolveCacheSize(DefaultMemoMaxEntries)
}

// NewSolveCacheSize returns an empty cache bounded at max entries; max <= 0
// means unbounded.
func NewSolveCacheSize(max int) *SolveCache {
	return &SolveCache{max: max, m: map[solveKey]*list.Element{}, lru: list.New()}
}

var sharedSolveCache = NewSolveCache()

// SharedSolveCache is the process-wide solve cache: every detection engine
// that does not opt out (or bring its own cache) keys into it, so repeated
// detection of identical function shapes across Table 1, Figure 16 and the
// end-to-end pipeline is an O(1) lookup instead of a fresh backtracking
// search.
func SharedSolveCache() *SolveCache { return sharedSolveCache }

// Get looks up the memoized solve of prob over a function with fingerprint
// fp, rehydrating the stored solutions against info. A hit refreshes the
// entry's LRU position. The returned step count equals what a fresh solve
// would report. ok is false on a true miss or when rehydration fails (which
// cannot happen for a correctly fingerprinted function, but is checked
// defensively rather than trusted).
func (c *SolveCache) Get(prob *Problem, fp Fingerprint, info *analysis.Info) (sols []Solution, steps int, ok bool) {
	c.mu.Lock()
	st := c.store
	el := c.m[solveKey{prob, prob.PackVersion, fp}]
	var e *memoEntry
	if el != nil {
		c.lru.MoveToFront(el)
		e = el.Value.(*lruEntry).e
	}
	c.mu.Unlock()
	if e == nil {
		// Read through to the disk spill before declaring a miss.
		if e = c.loadSpilled(st, prob, fp); e == nil {
			c.misses.Add(1)
			return nil, 0, false
		}
	}
	// Entries are immutable once stored, so rehydration runs outside the lock.
	sols, ok = rehydrate(e, info)
	if !ok {
		c.misses.Add(1)
		return nil, 0, false
	}
	c.hits.Add(1)
	return sols, e.steps, true
}

// Put stores a solve outcome, evicting the least-recently-used entry when the
// bound is exceeded. Solutions containing values that cannot be
// position-encoded are skipped (never served wrong rather than cached
// optimistically). With a store attached the entry is also spilled to disk:
// asynchronously off the hot path, and synchronously on eviction if the
// async write hasn't landed by then.
func (c *SolveCache) Put(prob *Problem, fp Fingerprint, info *analysis.Info, sols []Solution, steps int) {
	e, ok := encodeEntry(sols, steps, info)
	if !ok {
		return
	}
	key := solveKey{prob, prob.PackVersion, fp}
	le := &lruEntry{key: key, e: e}
	c.mu.Lock()
	st := c.store
	var evicted []*lruEntry
	if el, exists := c.m[key]; exists {
		// Swap in the fresh entry rather than mutate the old one: a
		// concurrent Put of the same key may be reading it to spill.
		el.Value = le
		c.lru.MoveToFront(el)
	} else {
		c.m[key] = c.lru.PushFront(le)
		evicted = c.evictOverLocked()
	}
	c.mu.Unlock()
	c.enqueueSpill(st, le)
	c.spillEvicted(st, evicted)
}

// evictOverLocked expels LRU-back entries while over the bound, returning
// them so the caller can spill any that never made it to disk. Caller holds
// c.mu.
func (c *SolveCache) evictOverLocked() (evicted []*lruEntry) {
	for c.max > 0 && len(c.m) > c.max {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.lru.Remove(back)
		le := back.Value.(*lruEntry)
		delete(c.m, le.key)
		c.evictions.Add(1)
		evicted = append(evicted, le)
	}
	return evicted
}

// AttachStore connects the disk spill layer. Attach before serving; entries
// cached earlier are spilled lazily as they are re-Put or evicted.
func (c *SolveCache) AttachStore(st SpillStore) {
	c.mu.Lock()
	c.store = st
	c.mu.Unlock()
}

// loadSpilled consults the disk store for a memo entry absent from the LRU,
// installing a decoded hit in memory (marked spilled — it just came from
// disk).
func (c *SolveCache) loadSpilled(st SpillStore, prob *Problem, fp Fingerprint) *memoEntry {
	if st == nil || prob.StoreID == ([32]byte{}) {
		return nil
	}
	payload, ok := st.Load(spillKeyFor(prob, fp))
	if !ok {
		c.storeMisses.Add(1)
		return nil
	}
	e, ok := decodePayload(payload)
	if !ok {
		c.decodeErrors.Add(1)
		c.storeMisses.Add(1)
		return nil
	}
	c.storeHits.Add(1)
	key := solveKey{prob, prob.PackVersion, fp}
	le := &lruEntry{key: key, e: e}
	le.spilled.Store(true)
	c.mu.Lock()
	var evicted []*lruEntry
	if _, exists := c.m[key]; !exists {
		c.m[key] = c.lru.PushFront(le)
		evicted = c.evictOverLocked()
	}
	c.mu.Unlock()
	c.spillEvicted(st, evicted)
	return e
}

// enqueueSpill hands one encoded entry to the async writer. A refused
// enqueue (full queue) is counted by the store; the eviction path then
// writes the entry synchronously.
func (c *SolveCache) enqueueSpill(st SpillStore, le *lruEntry) {
	prob := le.key.prob
	if st == nil || prob.StoreID == ([32]byte{}) || le.spilled.Load() {
		return
	}
	st.WriteAsync(spillKeyFor(prob, le.key.fp), encodePayload(le.e), func(err error) {
		if err == nil {
			le.spilled.Store(true)
		}
	})
}

// spillEvicted synchronously writes evicted entries whose async spill never
// landed (queue overflow, or eviction raced the writer). Without this, LRU
// pressure would silently erode the disk hit rate: an entry pushed out of
// memory before its async write completed would be gone from both tiers.
func (c *SolveCache) spillEvicted(st SpillStore, evicted []*lruEntry) {
	if st == nil {
		return
	}
	for _, le := range evicted {
		prob := le.key.prob
		if prob.StoreID == ([32]byte{}) || le.spilled.Load() {
			continue
		}
		if err := st.Write(spillKeyFor(prob, le.key.fp), encodePayload(le.e)); err == nil {
			le.spilled.Store(true)
			c.syncSpills.Add(1)
		}
	}
}

// SpillStats are the cumulative disk-spill counters of a SolveCache.
type SpillStats struct {
	// Hits / Misses count read-throughs on in-memory misses.
	Hits, Misses int64
	// SyncSpills counts evictions that had to write synchronously.
	SyncSpills int64
	// DecodeErrors counts stored payloads rejected by the codec.
	DecodeErrors int64
}

// SpillStats reports the disk-spill counters (all zero when no store is
// attached).
func (c *SolveCache) SpillStats() SpillStats {
	return SpillStats{
		Hits:         c.storeHits.Load(),
		Misses:       c.storeMisses.Load(),
		SyncSpills:   c.syncSpills.Load(),
		DecodeErrors: c.decodeErrors.Load(),
	}
}

// Stats reports cumulative lookup counters.
func (c *SolveCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Evictions reports how many entries the LRU bound has expelled.
func (c *SolveCache) Evictions() int64 { return c.evictions.Load() }

// MaxEntries reports the configured bound (0 = unbounded).
func (c *SolveCache) MaxEntries() int {
	if c.max <= 0 {
		return 0
	}
	return c.max
}

// Len reports the number of cached (problem × fingerprint) entries.
func (c *SolveCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

func encodeEntry(sols []Solution, steps int, info *analysis.Info) (*memoEntry, bool) {
	e := &memoEntry{steps: steps, sols: make([][]memoBinding, 0, len(sols))}
	for _, sol := range sols {
		names := make([]string, 0, len(sol))
		for n := range sol {
			names = append(names, n)
		}
		sort.Strings(names)
		bs := make([]memoBinding, 0, len(names))
		for _, n := range names {
			ref, ok := encodeVal(sol[n], info)
			if !ok {
				return nil, false
			}
			bs = append(bs, memoBinding{name: n, ref: ref})
		}
		e.sols = append(e.sols, bs)
	}
	return e, true
}

func encodeVal(v ir.Value, info *analysis.Info) (valRef, bool) {
	switch t := v.(type) {
	case unconstrainedValue:
		return valRef{kind: refUnconstrained}, true
	case *ir.Instruction:
		i, ok := info.Index[t]
		if !ok {
			return valRef{}, false
		}
		return valRef{kind: refInstr, idx: i}, true
	case *ir.Argument:
		if t.Index < 0 || t.Index >= len(info.Fn.Args) || info.Fn.Args[t.Index] != t {
			return valRef{}, false
		}
		return valRef{kind: refArg, idx: t.Index}, true
	case *ir.Const:
		return valRef{kind: refConst, ty: t.Ty.String(), lit: t.Operand()}, true
	case *ir.GlobalRef:
		return valRef{kind: refGlobal, ty: t.Ty.String(), lit: t.Ident}, true
	}
	return valRef{}, false
}

// operandPool lazily indexes the constants and global refs appearing as
// operands of a function, for rehydrating payload-encoded values onto the
// concrete ir.Value objects of that function.
type operandPool struct {
	info    *analysis.Info
	built   bool
	consts  map[[2]string]*ir.Const
	globals map[[2]string]*ir.GlobalRef
}

func (p *operandPool) build() {
	if p.built {
		return
	}
	p.built = true
	p.consts = map[[2]string]*ir.Const{}
	p.globals = map[[2]string]*ir.GlobalRef{}
	for _, in := range p.info.Instrs {
		for _, op := range in.Ops {
			switch t := op.(type) {
			case *ir.Const:
				key := [2]string{t.Ty.String(), t.Operand()}
				if _, ok := p.consts[key]; !ok {
					p.consts[key] = t
				}
			case *ir.GlobalRef:
				key := [2]string{t.Ty.String(), t.Ident}
				if _, ok := p.globals[key]; !ok {
					p.globals[key] = t
				}
			}
		}
	}
}

func rehydrate(e *memoEntry, info *analysis.Info) ([]Solution, bool) {
	pool := &operandPool{info: info}
	out := make([]Solution, 0, len(e.sols))
	for _, bs := range e.sols {
		sol := make(Solution, len(bs))
		for _, b := range bs {
			v, ok := decodeVal(b.ref, info, pool)
			if !ok {
				return nil, false
			}
			sol[b.name] = v
		}
		out = append(out, sol)
	}
	return out, true
}

func decodeVal(r valRef, info *analysis.Info, pool *operandPool) (ir.Value, bool) {
	switch r.kind {
	case refUnconstrained:
		return Unconstrained, true
	case refInstr:
		if r.idx < 0 || r.idx >= len(info.Instrs) {
			return nil, false
		}
		return info.Instrs[r.idx], true
	case refArg:
		if r.idx < 0 || r.idx >= len(info.Fn.Args) {
			return nil, false
		}
		return info.Fn.Args[r.idx], true
	case refConst:
		pool.build()
		v, ok := pool.consts[[2]string{r.ty, r.lit}]
		return v, ok
	case refGlobal:
		pool.build()
		v, ok := pool.globals[[2]string{r.ty, r.lit}]
		return v, ok
	}
	return nil, false
}
