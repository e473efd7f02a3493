package constraint

import (
	"testing"
	"time"

	"repro/internal/analysis"
)

const memoTestC = `
int example(int a, int b, int c) {
    int d = a;
    return (a*b) + (c*d);
}`

// A same-shape program with different identifier names: the fingerprint
// normalizes names away, so it must match example's.
const memoTestCRenamed = `
int other(int x, int y, int z) {
    int w = x;
    return (x*y) + (z*w);
}`

const memoTestCDifferent = `
int example(int a, int b, int c) {
    return (a*b) - (c*a);
}`

func TestFingerprintStability(t *testing.T) {
	a := FingerprintInfo(analyzeC(t, memoTestC, "example"))
	b := FingerprintInfo(analyzeC(t, memoTestC, "example"))
	if a != b {
		t.Fatal("fingerprints of two compiles of the same source differ")
	}
	renamed := FingerprintInfo(analyzeC(t, memoTestCRenamed, "other"))
	if a != renamed {
		t.Error("fingerprint depends on identifier names; it must only digest shape")
	}
	diff := FingerprintInfo(analyzeC(t, memoTestCDifferent, "example"))
	if a == diff {
		t.Error("fingerprints of structurally different functions collide")
	}
}

// TestSolveCacheRoundTrip solves once, then rehydrates the cached entry onto
// a fresh compile of the same source and checks the outcome is byte-identical
// to a fresh solve: same solutions (canonical keys, same order) and the same
// step count.
func TestSolveCacheRoundTrip(t *testing.T) {
	prob := mustProblem(t, figure2, "FactorizationOpportunity", nil)
	info1 := analyzeC(t, memoTestC, "example")
	fp1 := FingerprintInfo(info1)

	s1 := NewSolver(prob, info1)
	sols1 := s1.Solve()
	if len(sols1) == 0 {
		t.Fatal("expected solutions")
	}

	c := NewSolveCache()
	if _, _, ok := c.Get(prob, fp1, info1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(prob, fp1, info1, sols1, s1.Steps)
	if c.Len() != 1 {
		t.Fatalf("cache entries = %d, want 1", c.Len())
	}

	// Rehydrate against a fresh compile (fresh IR pointers).
	info2 := analyzeC(t, memoTestC, "example")
	fp2 := FingerprintInfo(info2)
	if fp1 != fp2 {
		t.Fatal("recompile changed the fingerprint")
	}
	got, steps, ok := c.Get(prob, fp2, info2)
	if !ok {
		t.Fatal("expected cache hit")
	}
	s2 := NewSolver(prob, info2)
	want := s2.Solve()
	if steps != s2.Steps {
		t.Errorf("cached steps = %d, fresh solve = %d", steps, s2.Steps)
	}
	if len(got) != len(want) {
		t.Fatalf("rehydrated %d solutions, fresh solve found %d", len(got), len(want))
	}
	for i := range want {
		if canonicalKey(got[i]) != canonicalKey(want[i]) {
			t.Errorf("solution %d differs:\n  cached: %s\n  fresh:  %s",
				i, canonicalKey(got[i]), canonicalKey(want[i]))
		}
	}
	// Rehydrated values must be live objects of the *new* function, not the
	// cached one's: the detect layer claims instructions by pointer.
	for i := range got {
		for name, v := range got[i] {
			if v == Unconstrained {
				continue
			}
			fresh, ok := want[i][name]
			if !ok || !sameValue(v, fresh) {
				t.Errorf("solution %d: %s rehydrated to %v, fresh solve bound %v", i, name, v, fresh)
			}
		}
	}

	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

// TestSolveCacheContentIdentity pins that the memo keys on what a problem
// is, not on which compile produced it: problems compiled from different
// sources never share an entry, and two compiles of byte-identical source
// share one entry that rehydrates byte-identically to a fresh solve.
func TestSolveCacheContentIdentity(t *testing.T) {
	const top = "FactorizationOpportunity"
	info := analyzeC(t, memoTestC, "example")
	fp := FingerprintInfo(info)
	c := NewSolveCache()

	first := mustProblem(t, figure2, top, nil)
	s := NewSolver(first, info)
	c.Put(first, fp, info, s.Solve(), s.Steps)

	// A comment is enough to make the source, hence the problem, different.
	edited := mustProblem(t, figure2+"\n# revision 2\n", top, nil)
	if _, _, ok := c.Get(edited, fp, info); ok {
		t.Fatal("memo served an entry across different sources")
	}
	se := NewSolver(edited, info)
	c.Put(edited, fp, info, se.Solve(), se.Steps)
	if c.Len() != 2 {
		t.Fatalf("cache entries = %d, want 2 (one per source)", c.Len())
	}

	// A second compile of the first source is a distinct object with the
	// same identity: it reads the first compile's entry and adds none.
	again := mustProblem(t, figure2, top, nil)
	if again == first {
		t.Fatal("test needs two compiles")
	}
	got, steps, ok := c.Get(again, fp, info)
	if !ok {
		t.Fatal("identical source missed the shared entry")
	}
	if c.Len() != 2 {
		t.Fatalf("cache entries = %d after the shared hit, want 2", c.Len())
	}
	fresh := NewSolver(again, info)
	want := fresh.Solve()
	if steps != fresh.Steps || len(got) != len(want) {
		t.Fatalf("shared entry: %d solutions / %d steps, fresh solve %d / %d",
			len(got), steps, len(want), fresh.Steps)
	}
	for i := range want {
		if canonicalKey(got[i]) != canonicalKey(want[i]) {
			t.Errorf("solution %d differs between the shared entry and a fresh solve", i)
		}
	}
}

// TestSolveCachePanicLeavesCacheUsable pins the lock discipline: a call that
// panics (here Get of a nil problem), once recovered, leaves the cache
// unlocked, so every later Get and Put of every caller still completes.
func TestSolveCachePanicLeavesCacheUsable(t *testing.T) {
	prob := mustProblem(t, figure2, "FactorizationOpportunity", nil)
	info := analyzeC(t, memoTestC, "example")
	fp := FingerprintInfo(info)
	s := NewSolver(prob, info)
	sols := s.Solve()
	c := NewSolveCache()

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Get(nil, ...) did not panic")
			}
		}()
		c.Get(nil, fp, info)
	}()

	done := make(chan bool)
	go func() {
		c.Put(prob, fp, info, sols, s.Steps)
		_, _, ok := c.Get(prob, fp, info)
		done <- ok
	}()
	select {
	case ok := <-done:
		if !ok {
			t.Error("Get after Put missed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Put/Get blocked after a recovered panic: the cache lock was left held")
	}
}

// TestSolveCacheDistinguishesShapes pins that a different function shape is
// a miss even under the same problem.
func TestSolveCacheDistinguishesShapes(t *testing.T) {
	prob := mustProblem(t, figure2, "FactorizationOpportunity", nil)
	info := analyzeC(t, memoTestC, "example")
	s := NewSolver(prob, info)
	c := NewSolveCache()
	c.Put(prob, FingerprintInfo(info), info, s.Solve(), s.Steps)

	other := analyzeC(t, memoTestCDifferent, "example")
	if _, _, ok := c.Get(prob, FingerprintInfo(other), other); ok {
		t.Fatal("cache hit across different function shapes")
	}
}

// memoShapeSource builds a family of structurally distinct functions (each
// extra statement changes the IR shape, hence the fingerprint) that all still
// contain the figure-2 factorization opportunity.
func memoShapeSource(i int) string {
	src := "int f(int a, int b, int c) { int r = (a*b) + (c*a);"
	for j := 0; j < i; j++ {
		src += " r = r + b;"
	}
	return src + " return r; }"
}

// TestSolveCacheLRUEviction pins the size bound: a cache of 3 entries holds
// at most 3, counts evictions, and an evicted shape simply re-solves to the
// byte-identical outcome on its next appearance.
func TestSolveCacheLRUEviction(t *testing.T) {
	prob := mustProblem(t, figure2, "FactorizationOpportunity", nil)
	const shapes, bound = 6, 3
	c := NewSolveCacheSize(bound)
	if c.MaxEntries() != bound {
		t.Fatalf("MaxEntries = %d, want %d", c.MaxEntries(), bound)
	}

	fps := make([]Fingerprint, shapes)
	wantKeys := make([][]string, shapes)
	wantSteps := make([]int, shapes)
	for i := 0; i < shapes; i++ {
		info := analyzeC(t, memoShapeSource(i), "f")
		fps[i] = FingerprintInfo(info)
		for j := 0; j < i; j++ {
			if fps[i] == fps[j] {
				t.Fatalf("shapes %d and %d share a fingerprint; test needs distinct shapes", i, j)
			}
		}
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
		if c.Len() > bound {
			t.Fatalf("after %d puts: Len = %d exceeds bound %d", i+1, c.Len(), bound)
		}
	}
	if c.Len() != bound {
		t.Fatalf("Len = %d, want %d", c.Len(), bound)
	}
	if ev := c.Evictions(); ev != shapes-bound {
		t.Fatalf("Evictions = %d, want %d", ev, shapes-bound)
	}

	// Every shape — evicted or resident — must produce the identical outcome:
	// residents rehydrate, evictees miss and re-solve to the same result.
	// (Verification never Puts, so residency is stable across the loop.)
	for i := 0; i < shapes; i++ {
		info := analyzeC(t, memoShapeSource(i), "f")
		sols, steps, ok := c.Get(prob, fps[i], info)
		if ok != (i >= shapes-bound) {
			t.Fatalf("shape %d: resident = %v, want %v (LRU keeps the last %d)", i, ok, !ok, bound)
		}
		if !ok {
			s := NewSolver(prob, info)
			sols, steps = s.Solve(), s.Steps
		}
		if steps != wantSteps[i] {
			t.Errorf("shape %d: steps = %d, want %d", i, steps, wantSteps[i])
		}
		if len(sols) != len(wantKeys[i]) {
			t.Fatalf("shape %d: %d solutions, want %d", i, len(sols), len(wantKeys[i]))
		}
		for j, sol := range sols {
			if canonicalKey(sol) != wantKeys[i][j] {
				t.Errorf("shape %d solution %d differs after eviction round-trip", i, j)
			}
		}
	}
}

// TestCancelledSplitSolveNotMemoized pins the cancel × memo poison contract: a
// cancelled solve reports Cancelled, the caller-side guard (the detection
// engine's) therefore never stores it, and the cache only ever serves the
// complete enumeration.
func TestCancelledSplitSolveNotMemoized(t *testing.T) {
	prob := mustProblem(t, figure2, "FactorizationOpportunity", nil)
	info := analyzeC(t, bigKernelSource(120), "kernel")
	fp := FingerprintInfo(info)
	c := NewSolveCache()

	// The engine's memoization guard, verbatim: complete solves only.
	solveThrough := func(s *Solver) []Solution {
		sols := s.Solve()
		if !s.Cancelled() {
			c.Put(prob, fp, info, sols, s.Steps)
		}
		return sols
	}

	cancel := make(chan struct{})
	close(cancel) // deterministic abort at the first periodic poll
	aborted := NewSolver(prob, info)
	aborted.Cancel = cancel
	partial := solveThrough(aborted)
	if !aborted.Cancelled() {
		t.Fatal("cancellation not reported")
	}
	if c.Len() != 0 {
		t.Fatalf("cancelled solve was memoized (%d entries)", c.Len())
	}

	// A complete solve memoizes, and the entry rehydrates to exactly the
	// full enumeration — not the aborted prefix.
	full := NewSolver(prob, info)
	want := solveThrough(full)
	if len(want) == 0 || len(partial) >= len(want) {
		t.Fatalf("aborted solve found %d solutions, complete found %d; test needs a real prefix",
			len(partial), len(want))
	}
	got, steps, ok := c.Get(prob, fp, info)
	if !ok {
		t.Fatal("complete solve was not memoized")
	}
	if steps != full.Steps || len(got) != len(want) {
		t.Fatalf("rehydrated %d solutions / %d steps, want %d / %d",
			len(got), steps, len(want), full.Steps)
	}
	for i := range want {
		if canonicalKey(got[i]) != canonicalKey(want[i]) {
			t.Errorf("solution %d differs after memo round-trip", i)
		}
	}
}

// TestSolveCacheLRUTouchOnGet pins that Get refreshes recency: the
// most-recently-read entry survives the next eviction.
func TestSolveCacheLRUTouchOnGet(t *testing.T) {
	prob := mustProblem(t, figure2, "FactorizationOpportunity", nil)
	c := NewSolveCacheSize(2)
	infos := make([]*analysis.Info, 3)
	fps := make([]Fingerprint, 3)
	for i := range infos {
		infos[i] = analyzeC(t, memoShapeSource(i), "f")
		fps[i] = FingerprintInfo(infos[i])
		if i < 2 {
			s := NewSolver(prob, infos[i])
			c.Put(prob, fps[i], infos[i], s.Solve(), s.Steps)
		}
	}
	// Touch shape 0 so shape 1 becomes least-recently-used, then insert 2.
	if _, _, ok := c.Get(prob, fps[0], infos[0]); !ok {
		t.Fatal("shape 0 missing before eviction")
	}
	s := NewSolver(prob, infos[2])
	c.Put(prob, fps[2], infos[2], s.Solve(), s.Steps)
	if _, _, ok := c.Get(prob, fps[0], infos[0]); !ok {
		t.Error("recently-read shape 0 was evicted; LRU must evict shape 1")
	}
	if _, _, ok := c.Get(prob, fps[1], infos[1]); ok {
		t.Error("shape 1 survived; LRU must have evicted it")
	}
}
