package constraint_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/constraint"
	"repro/internal/idioms"
	"repro/internal/idl"
	"repro/internal/workloads"
)

// TestConcurrentSolvesShareSlotForm solves fresh problems from several
// goroutines at once, so that the first collect resolutions — which intern
// instance names into the problem's symbol table and fill its collect
// caches — race each other, and checks every solve against a sequential
// solve of a separately compiled copy.
func TestConcurrentSolvesShareSlotForm(t *testing.T) {
	prog, err := idl.ParseProgram(idioms.LibrarySource)
	if err != nil {
		t.Fatal(err)
	}
	var infos []*analysis.Info
	for _, w := range []string{"UA", "stencil", "histo"} {
		mod, err := workloads.ByName(w).Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range mod.Functions {
			infos = append(infos, analysis.Analyze(fn))
		}
	}
	render := func(prob *constraint.Problem, info *analysis.Info) string {
		s := constraint.NewSolver(prob, info)
		return fmt.Sprint(s.Solve(), s.Steps)
	}
	for _, top := range []string{"Reduction", "Histogram", "Stencil1", "Stencil3"} {
		compile := func() *constraint.Problem {
			prob, err := constraint.Compile(prog, top, constraint.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return prob
		}
		want := make([]string, len(infos))
		ref := compile()
		for i, info := range infos {
			want[i] = render(ref, info)
		}
		shared := compile()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range infos {
					i := (k + g*len(infos)/4) % len(infos)
					if got := render(shared, infos[i]); got != want[i] {
						t.Errorf("%s on function %d: concurrent solve differs from sequential", top, i)
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
