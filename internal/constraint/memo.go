package constraint

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/ir"
)

// DefaultMemoMaxEntries bounds every cache built with NewSolveCache. One
// entry is one (problem × function-fingerprint) solve outcome; the full
// 21-workload suite over the complete idiom roster occupies a few hundred
// entries, so the default leaves ample headroom for server traffic while
// capping worst-case memory on a long-lived process.
const DefaultMemoMaxEntries = 16384

// SolveCache memoizes complete solve outcomes keyed by (Problem.ID ×
// function fingerprint). It holds no *Problem, so problems compiled from
// byte-identical source share entries and a replaced pack is collectable
// while its entries stay cached; a zero ID is never memoized. Each entry is
// held in one form, its spill payload: the step count and the solutions
// position-encoded (instruction and argument indices, constant/global
// renderings) rather than as live IR pointers, so a cached entry decodes
// onto any function with the same fingerprint — including a fresh recompile
// of the same source — and spills to disk as it is. The solver is
// deterministic, so a decoded entry is byte-identical (values, order and
// step count) to a fresh solve.
//
// A cache belongs to whoever builds it: a detection engine uses exactly the
// cache its options name, and there is no process-wide default.
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
	// and eviction spills synchronously if the async write hasn't landed.
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

// solveKey is the one identity of a memoized solve in both tiers: the LRU
// map key, and (through spill) the disk address.
type solveKey struct {
	id [32]byte // Problem.ID
	fp Fingerprint
}

type lruEntry struct {
	key solveKey
	// payload is the entry's encodePayload bytes, never mutated once stored.
	payload []byte
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

// NewSolveCache returns an empty cache bounded at DefaultMemoMaxEntries.
func NewSolveCache() *SolveCache {
	return NewSolveCacheSize(DefaultMemoMaxEntries)
}

// NewSolveCacheSize returns an empty cache bounded at max entries; max <= 0
// means unbounded.
func NewSolveCacheSize(max int) *SolveCache {
	return &SolveCache{max: max, m: map[solveKey]*list.Element{}, lru: list.New()}
}

// Get looks up the memoized solve of prob over a function with fingerprint
// fp, decoding the stored solutions onto info. A hit refreshes the entry's
// LRU position. The returned step count equals what a fresh solve would
// report. ok is false on a true miss, for a problem with a zero ID, or when
// the entry does not decode onto info (which cannot happen for a correctly
// fingerprinted function, but is checked defensively rather than trusted).
func (c *SolveCache) Get(prob *Problem, fp Fingerprint, info *analysis.Info) (sols []Solution, steps int, ok bool) {
	key := solveKey{prob.ID, fp}
	if key.id != ([32]byte{}) {
		if payload, st := c.lookup(key); payload != nil {
			// Payloads are immutable once stored, so decoding runs outside
			// the lock.
			sols, steps, ok = decodePayload(payload, info, prob.index().syms)
		} else {
			// Read through to the disk spill before declaring a miss.
			sols, steps, ok = c.loadSpilled(st, key, info, prob.index().syms)
		}
	}
	if !ok {
		c.misses.Add(1)
		return nil, 0, false
	}
	c.hits.Add(1)
	return sols, steps, true
}

// Put stores a solve outcome, evicting the least-recently-used entry when the
// bound is exceeded. Problems with a zero ID and solutions containing values
// that cannot be position-encoded are skipped (never served wrong rather
// than cached optimistically). With a store attached the entry is also
// spilled to disk: asynchronously off the hot path, and synchronously on
// eviction if the async write hasn't landed by then.
func (c *SolveCache) Put(prob *Problem, fp Fingerprint, info *analysis.Info, sols []Solution, steps int) {
	key := solveKey{prob.ID, fp}
	if key.id == ([32]byte{}) {
		return
	}
	payload, ok := encodePayload(sols, steps, info)
	if !ok {
		return
	}
	le := &lruEntry{key: key, payload: payload}
	st, evicted := c.insert(le)
	c.enqueueSpill(st, le)
	c.spillEvicted(st, evicted)
}

// lookup returns the payload resident under key (nil when absent),
// refreshing its LRU position, and the attached store.
func (c *SolveCache) lookup(key solveKey) ([]byte, SpillStore) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.m[key]
	if el == nil {
		return nil, c.store
	}
	c.lru.MoveToFront(el)
	return el.Value.(*lruEntry).payload, c.store
}

// insert makes le resident under its key, returning the attached store and
// the entries the bound evicted so the caller can spill any that never made
// it to disk. A resident entry is swapped out, never mutated: a concurrent
// Put of the same key may be reading it to spill. Entries under one key are
// identical by construction.
func (c *SolveCache) insert(le *lruEntry) (SpillStore, []*lruEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, exists := c.m[le.key]; exists {
		el.Value = le
		c.lru.MoveToFront(el)
		return c.store, nil
	}
	c.m[le.key] = c.lru.PushFront(le)
	var evicted []*lruEntry
	for c.max > 0 && len(c.m) > c.max {
		back := c.lru.Back()
		c.lru.Remove(back)
		old := back.Value.(*lruEntry)
		delete(c.m, old.key)
		c.evictions.Add(1)
		evicted = append(evicted, old)
	}
	return c.store, evicted
}

// AttachStore connects the disk spill layer. Attach before serving; entries
// cached earlier are spilled lazily as they are re-Put or evicted.
func (c *SolveCache) AttachStore(st SpillStore) {
	c.mu.Lock()
	c.store = st
	c.mu.Unlock()
}

// loadSpilled consults the disk store for a memo entry absent from the LRU
// and decodes it onto info. Only bytes that decode are installed in memory
// (marked spilled — they just came from disk); anything else is a decode
// error and a store miss, and leaves the LRU as it was.
func (c *SolveCache) loadSpilled(st SpillStore, key solveKey, info *analysis.Info, syms *symtab) ([]Solution, int, bool) {
	if st == nil {
		return nil, 0, false
	}
	payload, ok := st.Load(key.spill())
	if !ok {
		c.storeMisses.Add(1)
		return nil, 0, false
	}
	sols, steps, ok := decodePayload(payload, info, syms)
	if !ok {
		c.decodeErrors.Add(1)
		c.storeMisses.Add(1)
		return nil, 0, false
	}
	c.storeHits.Add(1)
	le := &lruEntry{key: key, payload: payload}
	le.spilled.Store(true)
	_, evicted := c.insert(le)
	c.spillEvicted(st, evicted)
	return sols, steps, true
}

// enqueueSpill hands one entry's payload to the async writer. A refused
// enqueue (full queue) is counted by the store; the eviction path then
// writes the entry synchronously.
func (c *SolveCache) enqueueSpill(st SpillStore, le *lruEntry) {
	if st == nil || le.spilled.Load() {
		return
	}
	st.WriteAsync(le.key.spill(), le.payload, func(err error) {
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
		if le.spilled.Load() {
			continue
		}
		if err := st.Write(le.key.spill(), le.payload); err == nil {
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
	// DecodeErrors counts stored payloads rejected by the codec, including
	// well-formed ones that do not decode onto the asking function.
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
// operands of a function by their encoded (type, literal) pair, the bytes
// encodeVal's reference writes after its index, so that a payload's
// reference is looked up as it sits in the payload.
type operandPool struct {
	info    *analysis.Info
	built   bool
	consts  map[string]ir.Value
	globals map[string]ir.Value
}

func (p *operandPool) build() {
	if p.built {
		return
	}
	p.built = true
	p.consts = map[string]ir.Value{}
	p.globals = map[string]ir.Value{}
	var key []byte
	for _, in := range p.info.Instrs {
		for _, op := range in.Ops {
			m := p.consts
			switch t := op.(type) {
			case *ir.Const:
				key = appendSpillString(appendSpillString(key[:0], t.Ty.String()), t.Operand())
			case *ir.GlobalRef:
				key, m = appendSpillString(appendSpillString(key[:0], t.Ty.String()), t.Ident), p.globals
			default:
				continue
			}
			if _, ok := m[string(key)]; !ok {
				m[string(key)] = op
			}
		}
	}
}

// decodeVal resolves one position-encoded reference onto info: its kind and
// index as read, and operand its encoded (type, literal) pair. It accepts
// only a reference that encodeVal writes back byte for byte: an instruction
// or argument whose index is its own, the unconstrained marker with index
// 0, each with an empty type and literal, or a constant or global of the
// function with index 0.
func decodeVal(kind valRefKind, idx int, operand []byte, info *analysis.Info, pool *operandPool) (ir.Value, bool) {
	if kind == refConst || kind == refGlobal {
		if idx != 0 {
			return nil, false
		}
		pool.build()
		m := pool.consts
		if kind == refGlobal {
			m = pool.globals
		}
		v, ok := m[string(operand)]
		return v, ok
	}
	if string(operand) != "\x00\x00" { // an empty type and an empty literal
		return nil, false
	}
	switch kind {
	case refUnconstrained:
		return Unconstrained, idx == 0
	case refInstr:
		if idx < 0 || idx >= len(info.Instrs) {
			return nil, false
		}
		in := info.Instrs[idx]
		i, ok := info.Index[in]
		return in, ok && i == idx
	case refArg:
		if idx < 0 || idx >= len(info.Fn.Args) {
			return nil, false
		}
		arg := info.Fn.Args[idx]
		return arg, arg.Index == idx
	}
	return nil, false
}
