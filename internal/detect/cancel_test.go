package detect_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/constraint"
	"repro/internal/detect"
	"repro/internal/ir"
	"repro/internal/workloads"
)

// TestStreamIdiomSubsetMatchesSequential pins the per-submission roster
// subset: a Submission carrying Idioms must be byte-identical to the
// sequential driver run with the same Options.Idioms (same instances, same
// precedence, same step count), while other submissions on the same stream
// keep the full roster.
func TestStreamIdiomSubsetMatchesSequential(t *testing.T) {
	mod, err := workloads.ByName("CG").Compile()
	if err != nil {
		t.Fatal(err)
	}
	subset := []string{"Reduction", "SPMV"}
	want, err := detect.Module(mod, detect.Options{Idioms: subset})
	if err != nil {
		t.Fatal(err)
	}
	wantFull, err := detect.Module(mod, detect.Options{})
	if err != nil {
		t.Fatal(err)
	}

	eng, err := detect.NewEngine(detect.Options{Workers: 4, NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stream(2)
	st.SubmitJob(detect.Submission{Mod: mod, Idioms: subset})
	st.Submit(mod) // full roster rides the same stream
	st.Close()

	got := make([]*detect.Result, 2)
	for sr := range st.Results() {
		if sr.Err != nil {
			t.Fatalf("seq %d: %v", sr.Seq, sr.Err)
		}
		got[sr.Seq] = sr.Result
	}
	for name, pair := range map[string][2]*detect.Result{
		"subset": {want, got[0]},
		"full":   {wantFull, got[1]},
	} {
		wk, gk := resultKeys(t, pair[0]), resultKeys(t, pair[1])
		if len(wk) != len(gk) {
			t.Fatalf("%s: %d instances, want %d", name, len(gk), len(wk))
		}
		for i := range wk {
			if wk[i] != gk[i] {
				t.Errorf("%s: instance %d differs:\n  sequential: %s\n  stream:     %s", name, i, wk[i], gk[i])
			}
		}
		if pair[1].SolverSteps != pair[0].SolverSteps {
			t.Errorf("%s: solver steps %d, want %d", name, pair[1].SolverSteps, pair[0].SolverSteps)
		}
	}
}

// TestStreamCancellation pins load shedding: cancelling a submission's
// context makes the stream deliver the context error for that sequence
// number (instead of wedging or delivering partial results), frees the
// worker pool, and leaves the stream fully usable for later submissions.
func TestStreamCancellation(t *testing.T) {
	var mods []*ir.Module
	for _, w := range workloads.All() {
		mod, err := w.Compile()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		mods = append(mods, mod)
	}
	ref, err := detect.Modules(mods, detect.Options{NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}

	eng, err := detect.NewEngine(detect.Options{Workers: 4, NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stream(len(mods) + 1)

	// A pre-cancelled context must never run any detection work.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	st.SubmitJob(detect.Submission{Mod: mods[0], Ctx: pre})

	// The rest get a context cancelled while solves are in flight.
	ctx, cancel := context.WithCancel(context.Background())
	for _, mod := range mods {
		st.SubmitJob(detect.Submission{Mod: mod, Ctx: ctx})
	}
	cancel()

	// One uncancelled straggler proves the pool survives shedding.
	lastSeq := st.SubmitJob(detect.Submission{Mod: mods[0]})
	st.Close()

	delivered := 0
	for sr := range st.Results() {
		delivered++
		switch {
		case sr.Seq == 0:
			if !errors.Is(sr.Err, context.Canceled) {
				t.Errorf("pre-cancelled submission: err = %v, want context.Canceled", sr.Err)
			}
		case sr.Seq == lastSeq:
			if sr.Err != nil {
				t.Errorf("uncancelled submission failed: %v", sr.Err)
				break
			}
			wk, gk := resultKeys(t, ref[0]), resultKeys(t, sr.Result)
			if len(wk) != len(gk) {
				t.Fatalf("straggler: %d instances, want %d", len(gk), len(wk))
			}
			for i := range wk {
				if wk[i] != gk[i] {
					t.Errorf("straggler instance %d differs after shedding", i)
				}
			}
		default:
			// Raced with cancel: either a clean cancellation error or a full,
			// correct result — never a partial one.
			if sr.Err != nil {
				if !errors.Is(sr.Err, context.Canceled) {
					t.Errorf("seq %d: err = %v, want context.Canceled", sr.Seq, sr.Err)
				}
				break
			}
			wk, gk := resultKeys(t, ref[sr.Seq-1]), resultKeys(t, sr.Result)
			if len(wk) != len(gk) {
				t.Fatalf("seq %d: %d instances, want %d (partial result leaked)", sr.Seq, len(gk), len(wk))
			}
			for i := range wk {
				if wk[i] != gk[i] {
					t.Errorf("seq %d: instance %d differs", sr.Seq, i)
				}
			}
		}
	}
	if want := len(mods) + 2; delivered != want {
		t.Fatalf("delivered %d results, want %d (every submission must resolve)", delivered, want)
	}

	// The pool must drain completely once the stream is done.
	deadline := time.Now().Add(5 * time.Second)
	for st.Active() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still active after cancellation drain", st.Active())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSplitCancellation pins load shedding against a shared memo:
// cancelling a request while its solves are in flight must free every worker
// promptly and must never memoize a partial enumeration — a later fresh
// detection of the same modules has to rebuild the complete answer, not
// rehydrate a poisoned cache entry.
func TestSplitCancellation(t *testing.T) {
	var mods []*ir.Module
	for _, w := range workloads.All() {
		mod, err := w.Compile()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		mods = append(mods, mod)
	}
	ref, err := detect.Modules(mods, detect.Options{NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}

	// A private cache makes the poisoning observable: after the cancelled
	// round, re-detecting through the same engine must still be complete.
	cache := constraint.NewSolveCache()
	eng, err := detect.NewEngine(detect.Options{Workers: 4, Memo: cache})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stream(2 * len(mods))

	// Round 1: every module under one context, cancelled while solves are in
	// flight.
	ctx, cancel := context.WithCancel(context.Background())
	for _, mod := range mods {
		st.SubmitJob(detect.Submission{Mod: mod, Ctx: ctx})
	}
	cancel()

	// Round 2 on the same stream: the same modules, uncancelled. Whatever
	// round 1 memoized must be complete, so these have to match the
	// sequential reference exactly.
	base := len(mods)
	for _, mod := range mods {
		st.SubmitJob(detect.Submission{Mod: mod})
	}
	st.Close()

	for sr := range st.Results() {
		if sr.Seq < base {
			// Raced with cancel: a clean context error or a full result.
			if sr.Err != nil {
				if !errors.Is(sr.Err, context.Canceled) {
					t.Errorf("seq %d: err = %v, want context.Canceled", sr.Seq, sr.Err)
				}
				continue
			}
		}
		mi := sr.Seq % base
		if sr.Err != nil {
			t.Errorf("seq %d: unexpected error %v", sr.Seq, sr.Err)
			continue
		}
		wk, gk := resultKeys(t, ref[mi]), resultKeys(t, sr.Result)
		if len(wk) != len(gk) {
			t.Fatalf("seq %d: %d instances, want %d (partial solve leaked%s)",
				sr.Seq, len(gk), len(wk),
				map[bool]string{true: " through the memo", false: ""}[sr.Seq >= base])
		}
		for i := range wk {
			if wk[i] != gk[i] {
				t.Errorf("seq %d: instance %d differs", sr.Seq, i)
			}
		}
		if sr.Result.SolverSteps != ref[mi].SolverSteps {
			t.Errorf("seq %d: steps %d, want %d", sr.Seq, sr.Result.SolverSteps, ref[mi].SolverSteps)
		}
	}

	// Every worker must be free promptly.
	deadline := time.Now().Add(5 * time.Second)
	for st.Active() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still active after cancellation drain", st.Active())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
