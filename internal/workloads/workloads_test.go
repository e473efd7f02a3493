package workloads

import (
	"testing"

	"repro/internal/detect"
	"repro/internal/idioms"
	"repro/internal/interp"
	"repro/internal/ir"
)

// TestWorkloadCount checks the 21-benchmark roster of the paper's §7.
func TestWorkloadCount(t *testing.T) {
	all := All()
	if len(all) != 21 {
		t.Fatalf("workloads = %d, want 21", len(all))
	}
	nas, parboil := 0, 0
	for _, w := range all {
		switch w.Suite {
		case "NAS":
			nas++
		case "Parboil":
			parboil++
		default:
			t.Errorf("%s: unknown suite %q", w.Name, w.Suite)
		}
	}
	if nas != 10 || parboil != 11 {
		t.Errorf("suites = %d NAS + %d Parboil, want 10 + 11", nas, parboil)
	}
}

// TestWorkloadsCompile compiles every benchmark source.
func TestWorkloadsCompile(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			mod, err := w.Compile()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if mod.FunctionByName(w.Entry) == nil {
				t.Fatalf("entry %s missing", w.Entry)
			}
		})
	}
}

// TestWorkloadDetection verifies the per-benchmark idiom counts of the
// paper's Figure 16 — and hence the Table 1 totals.
func TestWorkloadDetection(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			mod, err := w.Compile()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			res := detectModule(t, mod)
			got := res.CountByClass()
			for c, n := range w.Expected {
				if got[c] != n {
					t.Errorf("%s: %s = %d, want %d", w.Name, c, got[c], n)
				}
			}
			for c, n := range got {
				if w.Expected[c] != n {
					t.Errorf("%s: unexpected %s = %d (want %d)", w.Name, c, n, w.Expected[c])
				}
			}
			if t.Failed() {
				for _, inst := range res.Instances {
					t.Logf("  instance: %s in %s", inst.Idiom.Name, inst.Function.Ident)
				}
			}
		})
	}
}

// TestTable1Totals pins the headline numbers: 45 scalar reductions, 5
// histograms, 6 stencils, 1 matrix op, 3 sparse ops — 60 idioms in total.
func TestTable1Totals(t *testing.T) {
	want := map[idioms.Class]int{
		idioms.ClassScalarReduction: 45,
		idioms.ClassHistogram:       5,
		idioms.ClassStencil:         6,
		idioms.ClassMatrixOp:        1,
		idioms.ClassSparseMatrixOp:  3,
	}
	got := TotalExpected()
	total := 0
	for c, n := range want {
		if got[c] != n {
			t.Errorf("%s = %d, want %d", c, got[c], n)
		}
		total += got[c]
	}
	if total != 60 {
		t.Errorf("total = %d, want 60", total)
	}
}

// TestWorkloadsExecute runs every benchmark at scale 1 under the interpreter
// and checks it terminates with a value.
func TestWorkloadsExecute(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			mod, err := w.Compile()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			m := interp.NewMachine(mod)
			args := Materialize(w.Setup(1))
			res, err := m.Exec(mod.FunctionByName(w.Entry), args...)
			if err != nil {
				t.Fatalf("exec: %v", err)
			}
			_ = res
			if m.Counts.Steps == 0 {
				t.Error("no operations recorded")
			}
		})
	}
}

// TestByName exercises lookup.
func TestByName(t *testing.T) {
	if w := ByName("CG"); w == nil || w.Name != "CG" {
		t.Error("ByName(CG) failed")
	}
	if w := ByName("nonesuch"); w != nil {
		t.Error("ByName(nonesuch) must be nil")
	}
}

// TestExploitableRoster pins the ten benchmarks of Figures 17/18.
func TestExploitableRoster(t *testing.T) {
	want := map[string]bool{
		"CG": true, "EP": true, "IS": true, "MG": true,
		"histo": true, "lbm": true, "sgemm": true, "spmv": true,
		"stencil": true, "tpacf": true,
	}
	for _, w := range All() {
		if w.Exploitable != want[w.Name] {
			t.Errorf("%s: exploitable = %v, want %v", w.Name, w.Exploitable, want[w.Name])
		}
	}
}

// detectModule runs the sequential reference engine (one worker, no memo)
// over mod, restricted to idms when given.
func detectModule(t *testing.T, mod *ir.Module, idms ...string) *detect.Result {
	t.Helper()
	eng, err := detect.NewEngine(detect.Options{Idioms: idms, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Module(mod)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
