package detect_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/constraint"
	"repro/internal/detect"
	"repro/internal/ir"
	"repro/internal/leakcheck"
	"repro/internal/workloads"
)

// collectBySeq drains a stream after Close and reassembles results in submit
// order, recording the arrival order as a side channel.
func collectBySeq(t *testing.T, st *detect.Stream, n int) (bySeq []*detect.Result, arrival []int) {
	t.Helper()
	bySeq = make([]*detect.Result, n)
	for sr := range st.Results() {
		if sr.Err != nil {
			t.Fatalf("seq %d: %v", sr.Seq, sr.Err)
		}
		if sr.Seq < 0 || sr.Seq >= n {
			t.Fatalf("seq %d out of range [0,%d)", sr.Seq, n)
		}
		if bySeq[sr.Seq] != nil {
			t.Fatalf("seq %d delivered twice", sr.Seq)
		}
		bySeq[sr.Seq] = sr.Result
		arrival = append(arrival, sr.Seq)
	}
	if len(arrival) != n {
		t.Fatalf("delivered %d results, want %d", len(arrival), n)
	}
	return bySeq, arrival
}

// TestStreamMatchesBatch asserts the streaming intake is deterministic:
// collecting the stream in submit order is byte-identical (instances and
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
	want, err := detect.Modules(mods, detect.Options{NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4, 8} {
		for _, memo := range []bool{false, true} {
			workers, memo := workers, memo
			t.Run(fmt.Sprintf("workers=%d/memo=%v", workers, memo), func(t *testing.T) {
				opts := detect.Options{Workers: workers, NoMemo: !memo}
				if memo {
					opts.Memo = constraint.NewSolveCache()
				}
				eng, err := detect.NewEngine(opts)
				if err != nil {
					t.Fatal(err)
				}
				st := eng.Stream(len(mods))
				for _, mod := range mods {
					st.Submit(mod)
				}
				st.Close()
				got, _ := collectBySeq(t, st, len(mods))
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

// TestStreamOutOfOrderCompletion pins that delivery order is completion
// order, not submit order, and that sequence numbers alone carry the
// determinism: every submitted module's result is delivered exactly once and
// matches its sequential reference no matter when it arrives. Submitting the
// heaviest module first at several workers makes interleaved completion
// overwhelmingly likely (the test's assertions do not depend on it).
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
	for i, mod := range mods {
		res, err := detect.Module(mod, detect.Options{})
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		want = append(want, res)
	}

	eng, err := detect.NewEngine(detect.Options{Workers: 4, NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stream(0)
	for _, mod := range mods {
		st.Submit(mod)
	}
	st.Close()
	got, arrival := collectBySeq(t, st, len(mods))
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
// spans from the caller-provided start (compile start in a pipeline) to
// merge completion.
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
	st := eng.Stream(1)
	offset := 250 * time.Millisecond
	st.SubmitAt(mod, time.Now().Add(-offset))
	st.Close()
	sr := <-st.Results()
	if sr.Err != nil {
		t.Fatal(sr.Err)
	}
	if sr.Result.Elapsed < offset {
		t.Errorf("Elapsed = %v, want >= %v (must span from the provided start)", sr.Result.Elapsed, offset)
	}
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
// the streaming path: the cache only ever stores complete solves, so a warm
// hit rehydrates exactly what the sequential solver produces — same
// instances, same claim sets and the same step totals — in every round.
func TestSplitMemoizedMatchesSequential(t *testing.T) {
	mod, err := workloads.ByName("sgemm").Compile()
	if err != nil {
		t.Fatal(err)
	}
	want, err := detect.Module(mod, detect.Options{})
	if err != nil {
		t.Fatal(err)
	}

	eng, err := detect.NewEngine(detect.Options{Workers: 4, Memo: constraint.NewSolveCache()})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		st := eng.Stream(1)
		st.Submit(mod)
		st.Close()
		for sr := range st.Results() {
			if sr.Err != nil {
				t.Fatalf("round %d: %v", round, sr.Err)
			}
			wk, gk := resultKeys(t, want), resultKeys(t, sr.Result)
			if len(wk) != len(gk) {
				t.Fatalf("round %d: %d instances, want %d", round, len(gk), len(wk))
			}
			for j := range wk {
				if wk[j] != gk[j] {
					t.Errorf("round %d: instance %d differs", round, j)
				}
			}
			if sr.Result.SolverSteps != want.SolverSteps {
				t.Errorf("round %d: steps %d, want %d", round, sr.Result.SolverSteps, want.SolverSteps)
			}
		}
	}
	hits, misses := eng.MemoStats()
	if hits == 0 {
		t.Errorf("second round did no memo hits (hits=%d misses=%d)", hits, misses)
	}
}
