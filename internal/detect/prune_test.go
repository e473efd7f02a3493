package detect_test

import (
	"fmt"
	"testing"

	"repro/internal/detect"
	"repro/internal/idioms"
	"repro/internal/ir"
	"repro/internal/workloads"
)

// compileAll compiles the full benchmark suite once per test.
func compileAll(t *testing.T) ([]*ir.Module, []string) {
	t.Helper()
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
	return mods, names
}

// streamKeys runs every module as a concurrent Detect call on a fresh
// engine's stream and returns per-module instance keys plus step counts, in
// submit order.
func streamKeys(t *testing.T, opts detect.Options, mods []*ir.Module) ([][]string, []int) {
	t.Helper()
	eng, err := detect.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stream()
	got, _ := detectAll(t, st, mods)
	st.Close()
	keys := make([][]string, len(mods))
	steps := make([]int, len(mods))
	for i, res := range got {
		keys[i] = resultKeys(t, res)
		steps[i] = res.SolverSteps
	}
	return keys, steps
}

// TestReorderByteIdenticalToOff pins the tentpole's central invariant: the
// default reorder mode only reschedules solves, so its output — instances,
// order, claim sets AND solver step totals — is byte-identical to the
// prescreen-free engine at every worker count, on both the batch and
// streaming paths. Run under -race this also exercises the
// prescreen's shared-state paths.
func TestReorderByteIdenticalToOff(t *testing.T) {
	mods, names := compileAll(t)

	// Batch path at several worker counts.
	off, err := detect.Modules(mods, detect.Options{Workers: 4, Prune: detect.PruneOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("batch/workers=%d", workers), func(t *testing.T) {
			got, err := detect.Modules(mods, detect.Options{Workers: workers, Prune: detect.PruneReorder})
			if err != nil {
				t.Fatal(err)
			}
			for i := range off {
				wk, gk := resultKeys(t, off[i]), resultKeys(t, got[i])
				if len(wk) != len(gk) {
					t.Fatalf("%s: %d instances, want %d", names[i], len(gk), len(wk))
				}
				for j := range wk {
					if wk[j] != gk[j] {
						t.Errorf("%s: instance %d differs:\n  off:     %s\n  reorder: %s", names[i], j, wk[j], gk[j])
					}
				}
				if got[i].SolverSteps != off[i].SolverSteps {
					t.Errorf("%s: solver steps %d, want %d", names[i], got[i].SolverSteps, off[i].SolverSteps)
				}
			}
		})
	}

	// Streaming path at the same worker counts. The split=1 label names the
	// sequential search, the only one the solver has.
	offKeys, offSteps := streamKeys(t, detect.Options{Workers: 4, Prune: detect.PruneOff}, mods)
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("stream/workers=%d/split=1", workers), func(t *testing.T) {
			keys, steps := streamKeys(t, detect.Options{Workers: workers, Prune: detect.PruneReorder}, mods)
			for i := range offKeys {
				if len(keys[i]) != len(offKeys[i]) {
					t.Fatalf("%s: %d instances, want %d", names[i], len(keys[i]), len(offKeys[i]))
				}
				for j := range offKeys[i] {
					if keys[i][j] != offKeys[i][j] {
						t.Errorf("%s: instance %d differs:\n  off:     %s\n  reorder: %s",
							names[i], j, offKeys[i][j], keys[i][j])
					}
				}
				if steps[i] != offSteps[i] {
					t.Errorf("%s: solver steps %d, want %d", names[i], steps[i], offSteps[i])
				}
			}
		})
	}
}

// TestPruneNeverSkipsSequentialMatches pins prune soundness across the whole
// benchmark suite: every instance the sequential (never-prescreened) driver
// detects is also detected with pruning on. Step counts may shrink — that is
// the point — but the instance lists must be identical, because skipping is
// only allowed at score 0, where a required opcode is provably absent.
func TestPruneNeverSkipsSequentialMatches(t *testing.T) {
	mods, names := compileAll(t)
	pruned, err := detect.Modules(mods, detect.Options{Workers: 4, Prune: detect.PruneOn})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, mod := range mods {
		seq, err := detect.Module(mod, detect.Options{})
		if err != nil {
			t.Fatalf("%s: sequential detect: %v", names[i], err)
		}
		wk, gk := resultKeys(t, seq), resultKeys(t, pruned[i])
		if len(wk) != len(gk) {
			t.Fatalf("%s: pruned run found %d instances, sequential %d", names[i], len(gk), len(wk))
		}
		for j := range wk {
			if wk[j] != gk[j] {
				t.Errorf("%s: instance %d differs:\n  sequential: %s\n  pruned:     %s", names[i], j, wk[j], gk[j])
			}
		}
		total += len(wk)
	}
	if total == 0 {
		t.Fatal("suite detected no instances; soundness assertion is vacuous")
	}
}

// axpyPackIDL is a small runtime pack (a BLAS-1 style kernel plus a
// reduction alias) used to pin prune soundness on the pack-roster path.
const axpyPackIDL = `
Constraint AXPYCore
( {store} is store instruction and
  {mul} is fmul instruction and
  {acc} is fadd instruction and
  {mul} has data flow to {acc} and
  {acc} has data flow to {store} and
  {guard} is branch instruction )
End

Constraint PackReduce
( {old_value} is phi instruction and
  {acc} is fadd instruction and
  {old_value} has data flow to {acc} and
  {guard} is branch instruction )
End`

// packRoster compiles the test pack and resolves its full roster, signatures
// included — the same shape idiomatic.Service.resolve produces.
func packRoster(t *testing.T) []detect.Resolved {
	t.Helper()
	pack, err := idioms.CompilePack("blas1", axpyPackIDL, []idioms.TopSpec{
		{Top: "AXPYCore", Scheme: "loopbody1"},
		{Top: "PackReduce", Scheme: "reduction"},
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	ros := make([]detect.Resolved, 0, len(pack.Idioms))
	for _, idm := range pack.Idioms {
		prob, _ := pack.Problem(idm.Name)
		sig, _ := pack.Signature(idm.Name)
		ros = append(ros, detect.Resolved{Idiom: idm, Prob: prob, Sig: sig})
	}
	return ros
}

// TestPrunePackRosterSound runs the whole suite against a runtime-registered
// pack roster with pruning on and asserts the instance lists match the
// prescreen-free engine exactly — the pack path derives its signatures at
// CompilePack time, and they must be as sound as the built-in roster's.
func TestPrunePackRosterSound(t *testing.T) {
	mods, names := compileAll(t)
	run := func(prune detect.PruneMode) [][]string {
		eng, err := detect.NewEngine(detect.Options{Workers: 4, Prune: prune})
		if err != nil {
			t.Fatal(err)
		}
		ros := packRoster(t)
		subs := make([]detect.Submission, len(mods))
		for i, mod := range mods {
			subs[i] = detect.Submission{Mod: mod, Roster: ros}
		}
		st := eng.Stream()
		got, errs, _ := detectAsync(st, subs)()
		st.Close()
		keys := make([][]string, len(mods))
		for i, res := range got {
			if errs[i] != nil {
				t.Fatalf("module %d: %v", i, errs[i])
			}
			keys[i] = resultKeys(t, res)
		}
		return keys
	}
	want := run(detect.PruneOff)
	got := run(detect.PruneOn)
	total := 0
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: pruned pack run found %d instances, baseline %d", names[i], len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("%s: instance %d differs:\n  off:    %s\n  pruned: %s", names[i], j, want[i][j], got[i][j])
			}
		}
		total += len(want[i])
	}
	if total == 0 {
		t.Fatal("pack roster matched nothing; soundness assertion is vacuous")
	}
}

// TestPruneSkipsAndCounts checks prune mode actually skips work on a module
// that provably cannot match (an integer-only function can never satisfy the
// float idioms' fmul/fadd requirements) and that the engine's counters move.
func TestPruneSkipsAndCounts(t *testing.T) {
	mod, err := workloads.ByName("IS").Compile() // integer sort: no float math
	if err != nil {
		t.Fatal(err)
	}
	eng, err := detect.NewEngine(detect.Options{Workers: 4, Prune: detect.PruneOn})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Module(mod); err != nil {
		t.Fatal(err)
	}
	skipped, _, prescreenNs := eng.PruneStats()
	if skipped == 0 {
		t.Error("prune=on over an integer-only workload skipped nothing")
	}
	if prescreenNs <= 0 {
		t.Error("prescreen time not recorded")
	}

	// Reorder mode must never skip, whatever the scores say.
	reng, err := detect.NewEngine(detect.Options{Workers: 4, Prune: detect.PruneReorder})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reng.Module(mod); err != nil {
		t.Fatal(err)
	}
	if s, _, _ := reng.PruneStats(); s != 0 {
		t.Errorf("reorder mode skipped %d solves; must never skip", s)
	}
}
