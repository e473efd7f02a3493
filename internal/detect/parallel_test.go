package detect_test

import (
	"fmt"
	"testing"

	"repro/internal/detect"
	"repro/internal/ir"
	"repro/internal/workloads"
)

// instanceKey renders everything observable about one instance: idiom,
// function, the full solution and the claim set (claims are compared by
// operand identity within the function, which pins instruction-level
// equality for modules compiled once).
func instanceKey(inst detect.Instance) string {
	s := fmt.Sprintf("%s|%s|%s|claims[", inst.Idiom.Name, inst.Function.Ident, inst.Solution)
	for _, c := range inst.Claims {
		s += c.Operand() + ","
	}
	return s + "]"
}

func resultKeys(t *testing.T, res *detect.Result) []string {
	t.Helper()
	keys := make([]string, len(res.Instances))
	for i, inst := range res.Instances {
		keys[i] = instanceKey(inst)
	}
	return keys
}

// TestParallelMatchesSequential asserts the concurrent engine is
// deterministic: for every benchmark module, the sequential driver and the
// engine at 1, 4 and 8 workers report identical instances — same idioms,
// same claim sets, same order — and identical solver step totals. Run under
// -race this also exercises the shared Info / shared Problem paths.
func TestParallelMatchesSequential(t *testing.T) {
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

	// Sequential reference over the shared modules.
	var want []*detect.Result
	for i, mod := range mods {
		res, err := detect.Module(mod, detect.Options{})
		if err != nil {
			t.Fatalf("%s: sequential detect: %v", names[i], err)
		}
		want = append(want, res)
	}

	for _, workers := range []int{1, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, err := detect.Modules(mods, detect.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("got %d results, want %d", len(got), len(want))
			}
			for i := range want {
				wk, gk := resultKeys(t, want[i]), resultKeys(t, got[i])
				if len(wk) != len(gk) {
					t.Fatalf("%s: %d instances, want %d", names[i], len(gk), len(wk))
				}
				for j := range wk {
					if wk[j] != gk[j] {
						t.Errorf("%s: instance %d differs:\n  sequential: %s\n  parallel:   %s",
							names[i], j, wk[j], gk[j])
					}
				}
				if got[i].SolverSteps != want[i].SolverSteps {
					t.Errorf("%s: solver steps %d, want %d", names[i], got[i].SolverSteps, want[i].SolverSteps)
				}
			}
		})
	}
}

// TestEngineIdiomSubset checks the engine honors Options.Idioms like the
// sequential driver does, including extension idioms that only run when
// named.
func TestEngineIdiomSubset(t *testing.T) {
	w := workloads.ByName("sgemm")
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	opts := detect.Options{Idioms: []string{"GEMM"}, Workers: 4}
	seq, err := detect.Module(mod, detect.Options{Idioms: opts.Idioms})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := detect.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Module(mod)
	if err != nil {
		t.Fatal(err)
	}
	wk, gk := resultKeys(t, seq), resultKeys(t, got)
	if len(wk) == 0 {
		t.Fatal("expected at least one GEMM instance in sgemm")
	}
	if len(wk) != len(gk) {
		t.Fatalf("instances: got %d, want %d", len(gk), len(wk))
	}
	for j := range wk {
		if wk[j] != gk[j] {
			t.Errorf("instance %d differs:\n  sequential: %s\n  parallel:   %s", j, wk[j], gk[j])
		}
	}
}

// TestEngineModuleBatch checks per-module aggregation: a batch call must
// attribute instances to the right module result.
func TestEngineModuleBatch(t *testing.T) {
	a, err := workloads.ByName("sgemm").Compile()
	if err != nil {
		t.Fatal(err)
	}
	b, err := workloads.ByName("CG").Compile()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := detect.Modules([]*ir.Module{a, b}, detect.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, mod := range []*ir.Module{a, b} {
		fns := map[*ir.Function]bool{}
		for _, fn := range mod.Functions {
			fns[fn] = true
		}
		for _, inst := range batch[i].Instances {
			if !fns[inst.Function] {
				t.Errorf("result %d contains instance from foreign module (%s)", i, inst.Function.Ident)
			}
		}
		if len(batch[i].Instances) == 0 {
			t.Errorf("result %d: no instances", i)
		}
	}
}

// sameResults compares per-module results against the sequential reference:
// instances, claim sets, order and solver step totals.
func sameResults(t *testing.T, names []string, got, want []*detect.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		wk, gk := resultKeys(t, want[i]), resultKeys(t, got[i])
		if len(wk) != len(gk) {
			t.Fatalf("%s: %d instances, want %d", names[i], len(gk), len(wk))
		}
		for j := range wk {
			if wk[j] != gk[j] {
				t.Errorf("%s: instance %d differs:\n  sequential: %s\n  engine:     %s",
					names[i], j, wk[j], gk[j])
			}
		}
		if got[i].SolverSteps != want[i].SolverSteps {
			t.Errorf("%s: solver steps %d, want %d", names[i], got[i].SolverSteps, want[i].SolverSteps)
		}
	}
}

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

// sequentialResults runs the sequential per-module driver over mods.
func sequentialResults(t *testing.T, mods []*ir.Module, names []string) []*detect.Result {
	t.Helper()
	want := make([]*detect.Result, len(mods))
	for i, mod := range mods {
		res, err := detect.Module(mod, detect.Options{})
		if err != nil {
			t.Fatalf("%s: sequential detect: %v", names[i], err)
		}
		want[i] = res
	}
	return want
}

// TestSplitMatchesSequential pins the streaming engine against the
// sequential driver with the memo off, so every search is a fresh solve:
// detecting every workload concurrently on one Workers:4 stream returns
// byte-identical results, and every worker is idle once the calls return.
func TestSplitMatchesSequential(t *testing.T) {
	mods, names := compileAll(t)
	want := sequentialResults(t, mods, names)

	eng, err := detect.NewEngine(detect.Options{Workers: 4, NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stream()
	got, _ := detectAll(t, st, mods)
	st.Close()
	sameResults(t, names, got, want)
	if a := st.Active(); a != 0 {
		t.Errorf("Active = %d after drain, want 0", a)
	}
}

// TestBatchMatchesSequential pins the batch path: Engine.Modules runs the
// whole slice on the same task stream as Stream.Detect, so with the memo off its
// results are byte-identical to the sequential per-module driver, and a
// second batch on the same engine repeats them exactly. With Workers:1 the
// batch is sequential by construction.
func TestBatchMatchesSequential(t *testing.T) {
	mods, names := compileAll(t)
	want := sequentialResults(t, mods, names)

	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng, err := detect.NewEngine(detect.Options{Workers: workers, NoMemo: true})
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				got, err := eng.Modules(mods)
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, names, got, want)
			}
		})
	}
}
