package constraint

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"

	"repro/internal/idl"
)

// fakeSpill is an in-memory SpillStore for exercising the memo's disk hooks
// without touching the filesystem. WriteAsync runs inline when acceptAsync is
// set (the write "lands" before the call returns) and refuses otherwise,
// which lets tests force the eviction-time synchronous spill path.
type fakeSpill struct {
	mu           sync.Mutex
	m            map[SpillKey][]byte
	acceptAsync  bool
	syncWrites   int
	asyncWrites  int
	asyncRefused int
}

func newFakeSpill(acceptAsync bool) *fakeSpill {
	return &fakeSpill{m: map[SpillKey][]byte{}, acceptAsync: acceptAsync}
}

func (f *fakeSpill) Load(key SpillKey) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.m[key]
	return p, ok
}

func (f *fakeSpill) Write(key SpillKey, payload []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.m[key] = append([]byte(nil), payload...)
	f.syncWrites++
	return nil
}

func (f *fakeSpill) WriteAsync(key SpillKey, payload []byte, done func(err error)) bool {
	f.mu.Lock()
	if !f.acceptAsync {
		f.asyncRefused++
		f.mu.Unlock()
		return false
	}
	f.m[key] = append([]byte(nil), payload...)
	f.asyncWrites++
	f.mu.Unlock()
	if done != nil {
		done(nil)
	}
	return true
}

func (f *fakeSpill) len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.m)
}

// storableProblem compiles the figure-2 problem; Compile gives it the
// content ID that both memo tiers key on.
func storableProblem(t *testing.T) *Problem {
	t.Helper()
	return mustProblem(t, figure2, "FactorizationOpportunity", nil)
}

// TestPayloadCodecRoundTrip pins the spill codec: a solve outcome encoded to
// the versioned payload and decoded onto a fresh compile of the same source
// is byte-identical (same canonical solutions, order, and step count).
func TestPayloadCodecRoundTrip(t *testing.T) {
	prob := storableProblem(t)
	info := analyzeC(t, memoTestC, "example")
	s := NewSolver(prob, info)
	sols := s.Solve()
	if len(sols) == 0 {
		t.Fatal("expected solutions")
	}
	payload, ok := encodePayload(sols, s.Steps, info)
	if !ok {
		t.Fatal("encodePayload failed on a plain solve outcome")
	}
	info2 := analyzeC(t, memoTestC, "example")
	got, steps, ok := decodePayload(payload, info2, nil)
	if !ok {
		t.Fatal("decodePayload rejected its own encoding")
	}
	if steps != s.Steps {
		t.Fatalf("decoded steps=%d; want %d", steps, s.Steps)
	}
	want := NewSolver(prob, info2).Solve()
	if len(got) != len(want) {
		t.Fatalf("round-trip yielded %d solutions, fresh solve %d", len(got), len(want))
	}
	for i := range want {
		if canonicalKey(got[i]) != canonicalKey(want[i]) {
			t.Errorf("solution %d differs after disk codec round-trip", i)
		}
	}
}

func TestDecodePayloadRejectsMalformed(t *testing.T) {
	prob := storableProblem(t)
	info := analyzeC(t, memoTestC, "example")
	s := NewSolver(prob, info)
	good, _ := encodePayload(s.Solve(), s.Steps, info)

	cases := map[string][]byte{
		"empty":          {},
		"wrong version":  append([]byte{99}, good[1:]...),
		"truncated":      good[:len(good)/2],
		"trailing bytes": append(append([]byte(nil), good...), 0x00),
		// Two bindings, "b" before "a": names must be strictly ascending.
		"names out of order": {memoPayloadVersion, 0, 1, 2,
			1, 'b', byte(refUnconstrained), 0, 0, 0,
			1, 'a', byte(refUnconstrained), 0, 0, 0},
		// An unconstrained value carrying an index re-encodes without it.
		"non-canonical reference": {memoPayloadVersion, 0, 1, 1,
			1, 'a', byte(refUnconstrained), 1, 0, 0},
	}
	for name, payload := range cases {
		if _, _, ok := decodePayload(payload, info, nil); ok {
			t.Errorf("%s payload decoded as valid", name)
		}
	}
}

// TestDecodePayloadBoundsAllocation pins that element counts are checked
// against the bytes left before anything is allocated. The 14-byte payload
// claims 2^20 solutions of 2^20 bindings each; it must read back as a miss
// without allocating for either count. Such payloads reach the decoder from
// disk and, through snapshot ingest, from another replica.
func TestDecodePayloadBoundsAllocation(t *testing.T) {
	prob := storableProblem(t)
	info := analyzeC(t, memoTestC, "example")
	fp := FingerprintInfo(info)
	payload := []byte{memoPayloadVersion, 0} // version, steps
	for i := 0; i < 4; i++ {
		payload = binary.AppendUvarint(payload, 1<<20)
	}
	st := newFakeSpill(true)
	st.m[solveKey{prob.ID, fp}.spill()] = payload
	c := NewSolveCache()
	c.AttachStore(st)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, ok := c.Get(prob, fp, info)
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatal("a payload claiming 2^20 solutions in 14 bytes decoded as a hit")
	}
	if sp := c.SpillStats(); sp.DecodeErrors != 1 {
		t.Errorf("DecodeErrors = %d; want 1", sp.DecodeErrors)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("decoding a %d-byte payload allocated %d bytes; want < 1 MiB", len(payload), alloc)
	}
}

// TestSpillUndecodableIsMiss pins that a disk payload which is well formed
// but does not decode onto the asking function (here: an instruction index
// past its end) is a miss: one decode error, one store miss, and nothing
// installed in memory, so it cannot shadow a later Put.
func TestSpillUndecodableIsMiss(t *testing.T) {
	prob := storableProblem(t)
	info := analyzeC(t, memoTestC, "example")
	fp := FingerprintInfo(info)
	payload := []byte{memoPayloadVersion, 0, 1, 1, 1, 'x', byte(refInstr)}
	payload = binary.AppendUvarint(payload, uint64(len(info.Instrs)))
	payload = append(payload, 0, 0) // empty type and literal
	st := newFakeSpill(true)
	st.m[solveKey{prob.ID, fp}.spill()] = payload
	c := NewSolveCache()
	c.AttachStore(st)
	if _, _, ok := c.Get(prob, fp, info); ok {
		t.Fatal("an instruction index past the function decoded as a hit")
	}
	if sp := c.SpillStats(); sp.DecodeErrors != 1 || sp.Misses != 1 || sp.Hits != 0 {
		t.Errorf("spill stats = %+v; want one decode error and one miss", sp)
	}
	if n := c.Len(); n != 0 {
		t.Errorf("Len = %d after an undecodable disk payload; want 0", n)
	}
}

// TestSpillReadThrough pins the warm-restart contract at the memo layer: a
// fresh cache (a restarted process) attached to the same store serves the
// spilled entry as a hit, byte-identical to the original solve.
func TestSpillReadThrough(t *testing.T) {
	prob := storableProblem(t)
	info := analyzeC(t, memoTestC, "example")
	fp := FingerprintInfo(info)
	s := NewSolver(prob, info)
	sols := s.Solve()

	st := newFakeSpill(true)
	c1 := NewSolveCache()
	c1.AttachStore(st)
	c1.Put(prob, fp, info, sols, s.Steps)
	if st.len() != 1 {
		t.Fatalf("store holds %d entries after Put; want 1 async spill", st.len())
	}

	// "Restart": an empty cache, same store, fresh compile of the source.
	c2 := NewSolveCache()
	c2.AttachStore(st)
	info2 := analyzeC(t, memoTestC, "example")
	got, steps, ok := c2.Get(prob, FingerprintInfo(info2), info2)
	if !ok {
		t.Fatal("fresh cache missed an entry the store holds")
	}
	if steps != s.Steps || len(got) != len(sols) {
		t.Fatalf("disk hit returned %d solutions / %d steps; want %d / %d", len(got), steps, len(sols), s.Steps)
	}
	for i := range sols {
		if canonicalKey(got[i]) != canonicalKey(sols[i]) {
			t.Errorf("solution %d differs between disk-warmed and original solve", i)
		}
	}
	sp := c2.SpillStats()
	if sp.Hits != 1 || sp.Misses != 0 {
		t.Fatalf("spill stats = %+v; want exactly one disk hit", sp)
	}
	if hits, misses := c2.Stats(); hits != 1 || misses != 0 {
		t.Fatalf("memo stats = %d/%d; a disk hit must count as a memo hit, not a miss", hits, misses)
	}
	// The disk hit is now resident: a second Get must not touch the store.
	loadsBefore := sp.Hits + sp.Misses
	if _, _, ok := c2.Get(prob, FingerprintInfo(info2), info2); !ok {
		t.Fatal("second Get missed")
	}
	sp = c2.SpillStats()
	if sp.Hits+sp.Misses != loadsBefore {
		t.Error("resident entry consulted the disk store again")
	}
}

// TestZeroIDNeverMemoized pins that a problem without an identity (a
// hand-built Problem, or one compiled from a program extended in code) is
// never memoized: Put stores nothing in memory or on disk, even through an
// eviction, and Get misses.
func TestZeroIDNeverMemoized(t *testing.T) {
	compiled := storableProblem(t)
	handBuilt := &Problem{Name: compiled.Name, Root: compiled.Root, Vars: compiled.Vars}
	prog, err := idl.ParseProgram(figure2)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := idl.ParseConstraint("Constraint Extra ( {x} is add instruction ) End")
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Add(extra); err != nil {
		t.Fatal(err)
	}
	extended, err := Compile(prog, "FactorizationOpportunity", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, prob := range map[string]*Problem{"hand-built": handBuilt, "extended program": extended} {
		if prob.ID != ([32]byte{}) {
			t.Fatalf("%s: ID = %x, want zero", name, prob.ID)
		}
		info := analyzeC(t, memoTestC, "example")
		s := NewSolver(prob, info)
		st := newFakeSpill(true)
		c := NewSolveCacheSize(1)
		c.AttachStore(st)
		c.Put(prob, FingerprintInfo(info), info, s.Solve(), s.Steps)
		// Force an eviction too: neither path may write.
		info2 := analyzeC(t, memoShapeSource(1), "f")
		s2 := NewSolver(prob, info2)
		c.Put(prob, FingerprintInfo(info2), info2, s2.Solve(), s2.Steps)
		if c.Len() != 0 || st.len() != 0 {
			t.Fatalf("%s: memo holds %d entries, store %d; want 0 and 0", name, c.Len(), st.len())
		}
		if _, _, ok := c.Get(prob, FingerprintInfo(info), info); ok {
			t.Fatalf("%s: Get hit", name)
		}
	}
}

// TestEvictionSpillsUnpersistedEntries pins the eviction/persistence
// interplay: when the async writer refuses every spill (full queue), an entry
// evicted by LRU pressure must be written synchronously on the way out —
// otherwise it would vanish from both tiers and the disk hit rate would
// silently erode. A restarted cache must then serve it from disk.
func TestEvictionSpillsUnpersistedEntries(t *testing.T) {
	prob := storableProblem(t)
	const shapes, bound = 3, 2

	st := newFakeSpill(false) // async queue "always full"
	c := NewSolveCacheSize(bound)
	c.AttachStore(st)

	fps := make([]Fingerprint, shapes)
	wantKeys := make([][]string, shapes)
	wantSteps := make([]int, shapes)
	for i := 0; i < shapes; i++ {
		info := analyzeC(t, memoShapeSource(i), "f")
		fps[i] = FingerprintInfo(info)
		s := NewSolver(prob, info)
		sols := s.Solve()
		if len(sols) == 0 {
			t.Fatalf("shape %d: no solutions", i)
		}
		for _, sol := range sols {
			wantKeys[i] = append(wantKeys[i], canonicalKey(sol))
		}
		wantSteps[i] = s.Steps
		c.Put(prob, fps[i], info, sols, s.Steps)
	}

	// Shape 0 was evicted with its async spill never landed: the eviction
	// path must have written it synchronously.
	sp := c.SpillStats()
	if st.asyncRefused != shapes {
		t.Fatalf("async spills refused = %d; the fake refused all %d", st.asyncRefused, shapes)
	}
	if sp.SyncSpills != 1 {
		t.Fatalf("SyncSpills = %d; want exactly the one evicted entry", sp.SyncSpills)
	}
	if st.syncWrites != 1 || st.len() != 1 {
		t.Fatalf("store: %d sync writes, %d entries; want 1 and 1", st.syncWrites, st.len())
	}

	// A restarted cache serves the evicted shape from disk, byte-identically.
	c2 := NewSolveCacheSize(bound)
	c2.AttachStore(st)
	info := analyzeC(t, memoShapeSource(0), "f")
	sols, steps, ok := c2.Get(prob, fps[0], info)
	if !ok {
		t.Fatal("evicted entry not readable from disk after restart")
	}
	if steps != wantSteps[0] || len(sols) != len(wantKeys[0]) {
		t.Fatalf("disk hit: %d solutions / %d steps; want %d / %d", len(sols), steps, len(wantKeys[0]), wantSteps[0])
	}
	for j, sol := range sols {
		if canonicalKey(sol) != wantKeys[0][j] {
			t.Errorf("solution %d differs after evict-spill-reload round-trip", j)
		}
	}

	// Residents (shapes 1, 2) were never persisted — dropped async, never
	// evicted — so the restarted cache must re-solve them: a true miss.
	if _, _, ok := c2.Get(prob, fps[1], analyzeC(t, memoShapeSource(1), "f")); ok {
		t.Error("shape 1 served from disk despite every spill being dropped")
	}
}

// TestSpillKeyIdentity pins content addressing: equal (source, top,
// options) triples produce equal IDs, hence equal spill keys, regardless of
// which Problem object carries them; a different top, source text (even a
// comment) or compile option diverges.
func TestSpillKeyIdentity(t *testing.T) {
	p1 := storableProblem(t)
	p2 := storableProblem(t) // distinct compile, same content
	info := analyzeC(t, memoTestC, "example")
	fp := FingerprintInfo(info)
	if p1.ID != p2.ID || (solveKey{p1.ID, fp}).spill() != (solveKey{p2.ID, fp}).spill() {
		t.Error("equal-content problems produced different spill keys")
	}
	const top = "FactorizationOpportunity"
	ids := map[string][32]byte{"base": p1.ID}
	add := func(name, src, top string, opts CompileOptions) {
		prog, err := idl.ParseProgram(src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(prog, top, opts)
		if err != nil {
			t.Fatal(err)
		}
		for other, id := range ids {
			if id == p.ID {
				t.Errorf("%s and %s share an ID", name, other)
			}
		}
		ids[name] = p.ID
	}
	two := figure2 + "\nConstraint Other\n( inherits " + top + " )\nEnd\n"
	add("two constraints", two, top, CompileOptions{})
	add("other top", two, "Other", CompileOptions{})
	add("comment", figure2+"\n# revision 2\n", top, CompileOptions{})
	add("appearance order", figure2, top, CompileOptions{Ordering: OrderAppearance})
	add("params", figure2, top, CompileOptions{Params: map[string]int{"N": 2}})
	add("other params", figure2, top, CompileOptions{Params: map[string]int{"N": 3}})
}

// TestConcurrentPutSameKey pins that re-Putting a key never mutates an entry
// another Put is still spilling: concurrent solves of one function shape
// both store their (identical) outcome, and under -race the spill of the
// first must not read an entry the second rewrites. The cache then serves
// the outcome unchanged.
func TestConcurrentPutSameKey(t *testing.T) {
	prob := storableProblem(t)
	info := analyzeC(t, memoTestC, "example")
	fp := FingerprintInfo(info)
	s := NewSolver(prob, info)
	sols := s.Solve()

	c := NewSolveCache()
	c.AttachStore(newFakeSpill(true))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.Put(prob, fp, info, sols, s.Steps)
			}
		}()
	}
	wg.Wait()
	got, steps, ok := c.Get(prob, fp, info)
	if !ok || steps != s.Steps || len(got) != len(sols) {
		t.Fatalf("Get = %d solutions / %d steps / %v; want %d / %d / true", len(got), steps, ok, len(sols), s.Steps)
	}
}
