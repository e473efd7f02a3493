package detect_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/constraint"
	"repro/internal/detect"
	"repro/internal/ir"
	"repro/internal/leakcheck"
	"repro/internal/workloads"
)

// TestStreamIdiomSubsetMatchesSequential pins the per-submission roster
// subset: a Detect call whose Submission carries a resolved subset Roster
// must be byte-identical to the sequential reference run with the same
// Options.Idioms
// (same instances, same precedence, same step count), while a concurrent call
// on the same stream keeps the full roster.
func TestStreamIdiomSubsetMatchesSequential(t *testing.T) {
	mod, err := workloads.ByName("CG").Compile()
	if err != nil {
		t.Fatal(err)
	}
	subset := []string{"Reduction", "SPMV"}
	want := sequential(t, mod, detect.Options{Idioms: subset})
	wantFull := sequential(t, mod, detect.Options{})

	eng, err := detect.NewEngine(detect.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ros, err := detect.Resolve(nil, subset)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stream()
	got, errs, _ := detectAsync(st, []detect.Submission{
		{Mod: mod, Roster: ros},
		{Mod: mod}, // full roster rides the same stream
	})()
	st.Close()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
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
// context makes its Detect call return the context error (instead of wedging
// or returning a partial result), frees the worker pool, and leaves the
// stream fully usable for later calls.
func TestStreamCancellation(t *testing.T) {
	var mods []*ir.Module
	for _, w := range workloads.All() {
		mod, err := w.Compile()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		mods = append(mods, mod)
	}
	ref, err := detect.Modules(mods, detect.Options{})
	if err != nil {
		t.Fatal(err)
	}

	eng, err := detect.NewEngine(detect.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stream()

	// A pre-cancelled context must never run any detection work.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := st.Detect(detect.Submission{Mod: mods[0], Ctx: pre}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled submission: err = %v, want context.Canceled", err)
	}

	// The rest get a context cancelled while solves are in flight.
	ctx, cancel := context.WithCancel(context.Background())
	subs := make([]detect.Submission, len(mods))
	for i, mod := range mods {
		subs[i] = detect.Submission{Mod: mod, Ctx: ctx}
	}
	wait := detectAsync(st, subs)
	cancel()

	// One uncancelled straggler proves the pool survives shedding.
	last, err := st.Detect(detect.Submission{Mod: mods[0]})
	if err != nil {
		t.Errorf("uncancelled submission failed: %v", err)
	} else {
		wk, gk := resultKeys(t, ref[0]), resultKeys(t, last)
		if len(wk) != len(gk) {
			t.Fatalf("straggler: %d instances, want %d", len(gk), len(wk))
		}
		for i := range wk {
			if wk[i] != gk[i] {
				t.Errorf("straggler instance %d differs after shedding", i)
			}
		}
	}

	// Every cancelled call must return — raced with cancel, either a clean
	// cancellation error or a full, correct result, never a partial one.
	got, errs, _ := wait()
	st.Close()
	for mi, res := range got {
		if errs[mi] != nil {
			if !errors.Is(errs[mi], context.Canceled) {
				t.Errorf("module %d: err = %v, want context.Canceled", mi, errs[mi])
			}
			continue
		}
		wk, gk := resultKeys(t, ref[mi]), resultKeys(t, res)
		if len(wk) != len(gk) {
			t.Fatalf("module %d: %d instances, want %d (partial result leaked)", mi, len(gk), len(wk))
		}
		for i := range wk {
			if wk[i] != gk[i] {
				t.Errorf("module %d: instance %d differs", mi, i)
			}
		}
	}

	// The pool must drain completely once the stream is done.
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().Active != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still active after cancellation drain", st.Stats().Active)
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
	ref, err := detect.Modules(mods, detect.Options{})
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
	st := eng.Stream()

	// Round 1: every module under one context, cancelled while solves are in
	// flight.
	ctx, cancel := context.WithCancel(context.Background())
	subs := make([]detect.Submission, 2*len(mods))
	for i, mod := range mods {
		subs[i] = detect.Submission{Mod: mod, Ctx: ctx}
	}
	wait1 := detectAsync(st, subs[:len(mods)])
	cancel()

	// Round 2 on the same stream: the same modules, uncancelled. Whatever
	// round 1 memoized must be complete, so these have to match the
	// sequential reference exactly.
	base := len(mods)
	for i, mod := range mods {
		subs[base+i] = detect.Submission{Mod: mod}
	}
	wait2 := detectAsync(st, subs[base:])
	got1, errs1, _ := wait1()
	got2, errs2, _ := wait2()
	st.Close()
	got, errs := append(got1, got2...), append(errs1, errs2...)

	for seq, res := range got {
		if seq < base {
			// Raced with cancel: a clean context error or a full result.
			if errs[seq] != nil {
				if !errors.Is(errs[seq], context.Canceled) {
					t.Errorf("call %d: err = %v, want context.Canceled", seq, errs[seq])
				}
				continue
			}
		}
		mi := seq % base
		if errs[seq] != nil {
			t.Errorf("call %d: unexpected error %v", seq, errs[seq])
			continue
		}
		wk, gk := resultKeys(t, ref[mi]), resultKeys(t, res)
		if len(wk) != len(gk) {
			t.Fatalf("call %d: %d instances, want %d (partial solve leaked%s)",
				seq, len(gk), len(wk),
				map[bool]string{true: " through the memo", false: ""}[seq >= base])
		}
		for i := range wk {
			if wk[i] != gk[i] {
				t.Errorf("call %d: instance %d differs", seq, i)
			}
		}
		if res.SolverSteps != ref[mi].SolverSteps {
			t.Errorf("call %d: steps %d, want %d", seq, res.SolverSteps, ref[mi].SolverSteps)
		}
	}

	// Every worker must be free promptly.
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().Active != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still active after cancellation drain", st.Stats().Active)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamCancelMidSolve pins per-submission cancellation on compile
// thunks: a heavy module cancelled once it is solving returns
// context.Canceled, while the modules compiled and detected beside it on the
// same stream finish with their sequential results and the pool drains.
func TestStreamCancelMidSolve(t *testing.T) {
	leakcheck.Register(t)
	eng, err := detect.NewEngine(detect.Options{Workers: 2, Memo: constraint.NewSolveCache()})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stream()
	defer st.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	names := []string{"EP", "sgemm"}
	subs := []detect.Submission{{Compile: workloads.ByName("lbm").Compile, Ctx: ctx}}
	for _, n := range names {
		subs = append(subs, detect.Submission{Compile: workloads.ByName(n).Compile})
	}
	wait := detectAsync(st, subs)
	// A memo miss is counted as a fresh solve starts: cancel only once
	// solving is under way. lbm alone takes tens of milliseconds to solve.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, misses := eng.MemoStats(); misses > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no submission ever started solving")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()

	got, errs, _ := wait()
	if !errors.Is(errs[0], context.Canceled) || got[0] != nil {
		t.Fatalf("heavy submission: result %v, err %v; want context.Canceled", got[0], errs[0])
	}
	if err := errors.Join(errs[1:]...); err != nil {
		t.Fatal(err)
	}
	want := make([]*detect.Result, len(names))
	for i, n := range names {
		mod, err := workloads.ByName(n).Compile()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sequential(t, mod, detect.Options{})
	}
	sameResults(t, names, got[1:], want)
	if ss := st.Stats(); ss.Active != 0 || ss.Queued != 0 || ss.Compiling != 0 {
		t.Fatalf("final stats = %+v, want a drained stream", ss)
	}
}
