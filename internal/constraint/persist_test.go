package constraint

import (
	"sync"
	"testing"
	"time"
)

// fakeSpill is an in-memory SpillStore for exercising the memo's disk hooks
// without touching the filesystem. WriteAsync runs inline when acceptAsync is
// set (the write "lands" before the call returns) and refuses otherwise,
// which lets tests force the eviction-time synchronous spill path.
type fakeSpill struct {
	mu          sync.Mutex
	m           map[SpillKey][]byte
	acceptAsync bool
	syncWrites  int
	asyncWrites int
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

func (f *fakeSpill) WriteAsync(key SpillKey, encode func() []byte, done func(err error)) bool {
	f.mu.Lock()
	accept := f.acceptAsync
	f.mu.Unlock()
	if !accept {
		return false
	}
	f.mu.Lock()
	f.m[key] = append([]byte(nil), encode()...)
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

// storableProblem compiles the figure-2 problem and stamps the content
// identity a registry would: without a StoreID the memo refuses to spill.
func storableProblem(t *testing.T) *Problem {
	t.Helper()
	prob := mustProblem(t, figure2, "FactorizationOpportunity", nil)
	prob.StoreID = ProblemStoreID(figure2, "FactorizationOpportunity")
	return prob
}

// TestPayloadCodecRoundTrip pins the spill codec: a solve outcome encoded to
// the versioned payload and decoded back rehydrates byte-identically (same
// canonical solutions, order, and step count), with the cost row intact.
func TestPayloadCodecRoundTrip(t *testing.T) {
	prob := storableProblem(t)
	info := analyzeC(t, memoTestC, "example")
	s := NewSolver(prob, info)
	sols := s.Solve()
	if len(sols) == 0 {
		t.Fatal("expected solutions")
	}
	e, ok := encodeEntry(sols, s.Steps, info)
	if !ok {
		t.Fatal("encodeEntry failed on a plain solve outcome")
	}
	payload := encodePayload(e, 123456, 7)
	dec, costNs, costN, ok := decodePayload(payload)
	if !ok {
		t.Fatal("decodePayload rejected its own encoding")
	}
	if costNs != 123456 || costN != 7 || dec.steps != s.Steps {
		t.Fatalf("decoded (ns=%d n=%d steps=%d); want (123456, 7, %d)", costNs, costN, dec.steps, s.Steps)
	}
	// Rehydrate onto a fresh compile of the same source.
	info2 := analyzeC(t, memoTestC, "example")
	got, ok := rehydrate(dec, info2)
	if !ok {
		t.Fatal("rehydrate failed after codec round-trip")
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
	e, _ := encodeEntry(s.Solve(), s.Steps, info)
	good := encodePayload(e, 1, 1)

	cases := map[string][]byte{
		"empty":          {},
		"wrong version":  append([]byte{99}, good[1:]...),
		"truncated":      good[:len(good)/2],
		"trailing bytes": append(append([]byte(nil), good...), 0x00),
	}
	for name, payload := range cases {
		if _, _, _, ok := decodePayload(payload); ok {
			t.Errorf("%s payload decoded as valid", name)
		}
	}
}

// TestSpillReadThrough pins the warm-restart contract at the memo layer: a
// fresh cache (a restarted process) attached to the same store serves the
// spilled entry as a hit, byte-identical to the original solve, and the
// persisted cost row seeds the scheduler's prediction.
func TestSpillReadThrough(t *testing.T) {
	prob := storableProblem(t)
	info := analyzeC(t, memoTestC, "example")
	fp := FingerprintInfo(info)
	s := NewSolver(prob, info)
	sols := s.Solve()

	st := newFakeSpill(true)
	c1 := NewSolveCache()
	c1.AttachStore(st)
	c1.RecordCost(prob, info, 5*time.Millisecond)
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
	if d, ok := c2.PredictCost(prob, info2); !ok || d != 5*time.Millisecond {
		t.Errorf("PredictCost = %v, %v; want the persisted 5ms row", d, ok)
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

// TestSpillRequiresStoreID pins that problems without a content identity
// (StoreID zero: ad-hoc compiles outside any registry) never spill — their
// memo keys are process-local pointers that mean nothing on disk.
func TestSpillRequiresStoreID(t *testing.T) {
	prob := mustProblem(t, figure2, "FactorizationOpportunity", nil) // no StoreID
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
	if st.len() != 0 {
		t.Fatalf("store holds %d entries for a StoreID-less problem; want 0", st.len())
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
	if sp.Dropped != shapes {
		t.Fatalf("Dropped = %d; the fake refused all %d async spills", sp.Dropped, shapes)
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

// TestSpillKeyIdentity pins content addressing: equal (source, top) pairs
// produce equal spill keys regardless of which Problem object carries them,
// and different tops or sources diverge.
func TestSpillKeyIdentity(t *testing.T) {
	p1 := storableProblem(t)
	p2 := storableProblem(t) // distinct compile, same content
	info := analyzeC(t, memoTestC, "example")
	fp := FingerprintInfo(info)
	if spillKeyFor(p1, fp) != spillKeyFor(p2, fp) {
		t.Error("equal-content problems produced different spill keys")
	}
	if ProblemStoreID(figure2, "FactorizationOpportunity") == ProblemStoreID(figure2, "Other") {
		t.Error("StoreID ignores the top-level constraint name")
	}
	if ProblemStoreID(figure2, "X") == ProblemStoreID(figure2+" ", "X") {
		t.Error("StoreID ignores the IDL source text")
	}
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
