package detect_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/constraint"
	"repro/internal/detect"
	"repro/internal/ir"
	"repro/internal/leakcheck"
	"repro/internal/workloads"
)

// detectAsync starts one Detect call per submission, each on its own
// goroutine, and returns a wait function yielding the results and errors
// index-aligned with subs plus the order in which the calls returned.
func detectAsync(st *detect.Stream, subs []detect.Submission) func() ([]*detect.Result, []error, []int) {
	res := make([]*detect.Result, len(subs))
	errs := make([]error, len(subs))
	var arrival []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, sub := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = st.Detect(sub)
			mu.Lock()
			arrival = append(arrival, i)
			mu.Unlock()
		}()
	}
	return func() ([]*detect.Result, []error, []int) {
		wg.Wait()
		return res, errs, arrival
	}
}

// detectAll runs every module as its own concurrent Detect call on st and
// returns the results in submit order plus the order the calls returned,
// failing the test on any error.
func detectAll(t *testing.T, st *detect.Stream, mods []*ir.Module) ([]*detect.Result, []int) {
	t.Helper()
	subs := make([]detect.Submission, len(mods))
	for i, mod := range mods {
		subs[i] = detect.Submission{Mod: mod}
	}
	res, errs, arrival := detectAsync(st, subs)()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("module %d: %v", i, err)
		}
	}
	return res, arrival
}

// TestStreamMatchesBatch asserts the streaming intake is deterministic:
// concurrent Detect calls on one stream return results byte-identical (instances and
// solver steps) to the batch Modules call over the same modules, at 1, 4 and
// 8 workers, with solver memoization both off and on. Under -race this also
// exercises cross-module task interleaving on the shared pool and the memo
// cache's concurrent access paths.
func TestStreamMatchesBatch(t *testing.T) {
	leakcheck.Register(t)
	var mods []*ir.Module
	var names []string
	for _, w := range workloads.All() {
		mod, err := w.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", w.Name, err)
		}
		mods = append(mods, mod)
		names = append(names, w.Name)
	}

	// Batch reference without memoization: pure fresh solves.
	want, err := detect.Modules(mods, detect.Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4, 8} {
		for _, memo := range []bool{false, true} {
			workers, memo := workers, memo
			t.Run(fmt.Sprintf("workers=%d/memo=%v", workers, memo), func(t *testing.T) {
				opts := detect.Options{Workers: workers}
				if memo {
					opts.Memo = constraint.NewSolveCache()
				}
				eng, err := detect.NewEngine(opts)
				if err != nil {
					t.Fatal(err)
				}
				st := eng.Stream()
				got, _ := detectAll(t, st, mods)
				st.Close()
				for i := range want {
					wk, gk := resultKeys(t, want[i]), resultKeys(t, got[i])
					if len(wk) != len(gk) {
						t.Fatalf("%s: %d instances, want %d", names[i], len(gk), len(wk))
					}
					for j := range wk {
						if wk[j] != gk[j] {
							t.Errorf("%s: instance %d differs:\n  batch:  %s\n  stream: %s",
								names[i], j, wk[j], gk[j])
						}
					}
					if got[i].SolverSteps != want[i].SolverSteps {
						t.Errorf("%s: solver steps %d, want %d", names[i], got[i].SolverSteps, want[i].SolverSteps)
					}
					if got[i].Elapsed <= 0 {
						t.Errorf("%s: streamed Elapsed = %v, want > 0", names[i], got[i].Elapsed)
					}
				}
			})
		}
	}
}

// TestStreamOutOfOrderCompletion pins that concurrent Detect calls on one
// stream return in completion order, not call order, and that each call
// still gets exactly its own module's result, matching the sequential
// reference no matter when it returns. Starting the heaviest module first at
// several workers makes interleaved completion overwhelmingly likely (the
// test's assertions do not depend on it).
func TestStreamOutOfOrderCompletion(t *testing.T) {
	leakcheck.Register(t)
	names := []string{"lbm", "EP", "IS", "sgemm", "histo"}
	var mods []*ir.Module
	for _, n := range names {
		mod, err := workloads.ByName(n).Compile()
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		mods = append(mods, mod)
	}
	var want []*detect.Result
	for _, mod := range mods {
		want = append(want, sequential(t, mod, detect.Options{}))
	}

	eng, err := detect.NewEngine(detect.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stream()
	got, arrival := detectAll(t, st, mods)
	st.Close()
	t.Logf("arrival order: %v", arrival)
	for i := range want {
		wk, gk := resultKeys(t, want[i]), resultKeys(t, got[i])
		if len(wk) != len(gk) {
			t.Fatalf("%s: %d instances, want %d", names[i], len(gk), len(wk))
		}
		for j := range wk {
			if wk[j] != gk[j] {
				t.Errorf("%s: instance %d differs", names[i], j)
			}
		}
	}
}

// TestStreamSubmitAtElapsed pins the per-module wall-time contract: Elapsed
// spans from Submission.Start (compile start in a pipeline) to merge
// completion.
func TestStreamSubmitAtElapsed(t *testing.T) {
	leakcheck.Register(t)
	mod, err := workloads.ByName("EP").Compile()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := detect.NewEngine(detect.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stream()
	defer st.Close()
	offset := 250 * time.Millisecond
	res, err := st.Detect(detect.Submission{Mod: mod, Start: time.Now().Add(-offset)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed < offset {
		t.Errorf("Elapsed = %v, want >= %v (must span from the provided start)", res.Elapsed, offset)
	}
}

// TestStreamDetectAfterClosePanics pins the intake contract: once Close has
// been called, Detect panics rather than queueing work on a stopped pool.
func TestStreamDetectAfterClosePanics(t *testing.T) {
	leakcheck.Register(t)
	mod, err := workloads.ByName("EP").Compile()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := detect.NewEngine(detect.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stream()
	st.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Detect after Close did not panic")
		}
	}()
	st.Detect(detect.Submission{Mod: mod})
}

// TestMemoZeroFreshSolves asserts the acceptance criterion directly: the
// second detection of an identical module (a fresh compile of the same
// source, so all IR pointers differ) performs zero fresh solves — every
// (function × idiom) task is served from the fingerprint memo — and still
// produces byte-identical results.
func TestMemoZeroFreshSolves(t *testing.T) {
	leakcheck.Register(t)
	w := workloads.ByName("CG")
	mod1, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	mod2, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}

	eng, err := detect.NewEngine(detect.Options{Workers: 4, Memo: constraint.NewSolveCache()})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := eng.Module(mod1)
	if err != nil {
		t.Fatal(err)
	}
	hits1, misses1 := eng.MemoStats()
	if misses1 == 0 {
		t.Fatal("first detection reported zero fresh solves; memo accounting broken")
	}

	res2, err := eng.Module(mod2)
	if err != nil {
		t.Fatal(err)
	}
	hits2, misses2 := eng.MemoStats()
	if misses2 != misses1 {
		t.Errorf("second detection performed %d fresh solves, want 0", misses2-misses1)
	}
	// The first pass may itself hit for duplicate function shapes within the
	// module; the second pass must hit on every single task.
	tasks := hits1 + misses1
	if hits2-hits1 != tasks {
		t.Errorf("second detection hit the memo %d times, want %d (one per task)", hits2-hits1, tasks)
	}

	k1, k2 := resultKeys(t, res1), resultKeys(t, res2)
	if len(k1) != len(k2) {
		t.Fatalf("instance counts differ: %d vs %d", len(k1), len(k2))
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Errorf("instance %d differs:\n  fresh: %s\n  memo:  %s", i, k1[i], k2[i])
		}
	}
	if res1.SolverSteps != res2.SolverSteps {
		t.Errorf("solver steps %d vs %d; memo must report the skipped search's count", res1.SolverSteps, res2.SolverSteps)
	}
}

// TestSplitMemoizedMatchesSequential pins the memo's rehydration contract on
// the Stream.Detect path: the cache only ever stores complete solves, so a warm
// hit rehydrates exactly what the sequential solver produces — same
// instances, same claim sets and the same step totals — in every round.
func TestSplitMemoizedMatchesSequential(t *testing.T) {
	mod, err := workloads.ByName("sgemm").Compile()
	if err != nil {
		t.Fatal(err)
	}
	want := sequential(t, mod, detect.Options{})

	eng, err := detect.NewEngine(detect.Options{Workers: 4, Memo: constraint.NewSolveCache()})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		st := eng.Stream()
		got, err := st.Detect(detect.Submission{Mod: mod})
		st.Close()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		wk, gk := resultKeys(t, want), resultKeys(t, got)
		if len(wk) != len(gk) {
			t.Fatalf("round %d: %d instances, want %d", round, len(gk), len(wk))
		}
		for j := range wk {
			if wk[j] != gk[j] {
				t.Errorf("round %d: instance %d differs", round, j)
			}
		}
		if got.SolverSteps != want.SolverSteps {
			t.Errorf("round %d: steps %d, want %d", round, got.SolverSteps, want.SolverSteps)
		}
	}
	hits, misses := eng.MemoStats()
	if hits == 0 {
		t.Errorf("second round did no memo hits (hits=%d misses=%d)", hits, misses)
	}
}

// TestStreamMemoAcrossSubmissions pins the memo across stream submissions:
// resubmitting the same compile thunks (fresh modules, so every IR pointer
// differs) performs zero fresh solves, hits the memo once per task of the
// first round, and returns identical results and step counts.
func TestStreamMemoAcrossSubmissions(t *testing.T) {
	leakcheck.Register(t)
	eng, err := detect.NewEngine(detect.Options{Workers: 4, Memo: constraint.NewSolveCache()})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stream()
	defer st.Close()
	names := []string{"CG", "sgemm", "stencil"}
	round := func() []*detect.Result {
		t.Helper()
		subs := make([]detect.Submission, len(names))
		for i, n := range names {
			subs[i] = detect.Submission{Compile: workloads.ByName(n).Compile}
		}
		res, errs, _ := detectAsync(st, subs)()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", names[i], err)
			}
		}
		return res
	}

	first := round()
	hits1, misses1 := eng.MemoStats()
	second := round()
	hits2, misses2 := eng.MemoStats()
	if misses2 != misses1 {
		t.Errorf("resubmission performed %d fresh solves, want 0", misses2-misses1)
	}
	if hits2-hits1 != hits1+misses1 {
		t.Errorf("resubmission hit the memo %d times, want %d", hits2-hits1, hits1+misses1)
	}
	sameResults(t, names, second, first)
}

// TestZeroOptionsNeverMemoize pins that an engine memoizes only into the
// cache its options name: the zero Options have none, so a repeated
// detection re-solves and the engine reports no memo traffic.
func TestZeroOptionsNeverMemoize(t *testing.T) {
	leakcheck.Register(t)
	eng, err := detect.NewEngine(detect.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Memo() != nil {
		t.Fatal("zero Options gave the engine a memo cache")
	}
	mod, err := workloads.ByName("CG").Compile()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := eng.Module(mod); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := eng.MemoStats(); hits != 0 || misses != 0 {
		t.Errorf("MemoStats = %d/%d; want 0/0", hits, misses)
	}
}
