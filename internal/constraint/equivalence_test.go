package constraint

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cc"
	"repro/internal/idl"
	"repro/internal/ir"
)

// The solver's two performance mechanisms — atom-driven candidate
// generation and greedy variable ordering — are optimizations only: they
// must never change the set of solutions. These tests pin that invariant
// over a corpus of programs and idioms.

var equivCorpus = []struct{ name, src string }{
	{"sum", `
double sum(double* a, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s = s + a[i]; }
    return s;
}`},
	{"dotmax", `
double dot(double* x, double* y, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s = s + x[i]*y[i]; }
    return s;
}
double maxv(double* a, int n) {
    double m = 0.0;
    for (int i = 0; i < n; i++) {
        if (a[i] > m) { m = a[i]; }
    }
    return m;
}`},
	{"spmv", `
void spmv(int m, double* a, int* rowstr, int* colidx, double* z, double* r) {
    for (int j = 0; j < m; j++) {
        double d = 0.0;
        for (int k = rowstr[j]; k < rowstr[j+1]; k++) {
            d = d + a[k] * z[colidx[k]];
        }
        r[j] = d;
    }
}`},
	{"histogram", `
void histo(int* data, int* bins, int n) {
    for (int i = 0; i < n; i++) {
        bins[data[i]] += 1;
    }
}`},
	{"jacobi", `
void jacobi(double* in, double* out, int n) {
    for (int i = 1; i < n - 1; i++) {
        out[i] = (in[i-1] + in[i] + in[i+1]) / 3.0;
    }
}`},
}

func solutionSet(t *testing.T, prob *Problem, fn *ir.Function, naive bool) []string {
	t.Helper()
	solver := NewSolver(prob, analysis.Analyze(fn))
	solver.NaiveCandidates = naive
	sols := solver.Solve()
	keys := make([]string, 0, len(sols))
	for _, s := range sols {
		keys = append(keys, canonicalKey(s))
	}
	sort.Strings(keys)
	return keys
}

func equalSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func libraryProgram(t *testing.T) *idl.Program {
	t.Helper()
	// The full built-in library lives in internal/idioms, which imports
	// this package; these tests use a compact self-contained library
	// instead (full-library behaviour is covered by the detect tests).
	prog, err := idl.ParseProgram(equivTestLibrary)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

// TestCandidateGenerationEquivalence: indexed candidates find exactly the
// naive enumeration's solutions.
func TestCandidateGenerationEquivalence(t *testing.T) {
	prog := libraryProgram(t)
	for _, c := range equivCorpus {
		mod, err := cc.Compile(c.name, c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, top := range []string{"SimpleReduction", "SimpleLoad"} {
			prob, err := Compile(prog, top, CompileOptions{})
			if err != nil {
				t.Fatalf("%s: %v", top, err)
			}
			for _, fn := range mod.Functions {
				indexed := solutionSet(t, prob, fn, false)
				naive := solutionSet(t, prob, fn, true)
				if !equalSets(indexed, naive) {
					t.Errorf("%s/%s/%s: indexed %d solutions vs naive %d",
						c.name, top, fn.Ident, len(indexed), len(naive))
				}
			}
		}
	}
}

// TestOrderingEquivalence: greedy and appearance orderings find the same
// solutions (§4.4: ordering affects performance, not results).
func TestOrderingEquivalence(t *testing.T) {
	prog := libraryProgram(t)
	for _, c := range equivCorpus {
		mod, err := cc.Compile(c.name, c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, top := range []string{"SimpleReduction", "SimpleLoad"} {
			greedy, err := Compile(prog, top, CompileOptions{Ordering: OrderGreedy})
			if err != nil {
				t.Fatal(err)
			}
			appear, err := Compile(prog, top, CompileOptions{Ordering: OrderAppearance})
			if err != nil {
				t.Fatal(err)
			}
			for _, fn := range mod.Functions {
				a := solutionSet(t, greedy, fn, false)
				b := solutionSet(t, appear, fn, false)
				if !equalSets(a, b) {
					t.Errorf("%s/%s/%s: greedy %d vs appearance %d solutions",
						c.name, top, fn.Ident, len(a), len(b))
				}
			}
		}
	}
}

// equivTestLibrary is a compact self-contained pair of constraints used by
// the equivalence tests: a canonical reduction skeleton and a bare
// load-at-gep shape. They produce several solutions on the corpus, which
// is what makes set equality a meaningful check.
const equivTestLibrary = `
Constraint SimpleLoad
( {value} is load instruction and
  {address} is first argument of {value} and
  {address} is gep instruction and
  {base} is first argument of {address} and
  {base} is pointer )
End

Constraint SimpleReduction
( {acc} is phi instruction and
  {acc} is float and
  {init} reaches phi node {acc} from {pre} and
  {next} reaches phi node {acc} from {back} and
  {pre} is not the same as {back} and
  {next} is fadd instruction and
  ( {acc} is first argument of {next} or
    {acc} is second argument of {next} ) )
End
`

// canonicalKey renders a solution as a stable string, for comparing solution
// sets across solves.
func canonicalKey(sol Solution) string {
	names := make([]string, 0, len(sol))
	for n := range sol {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(n)
		b.WriteByte('=')
		v := sol[n]
		if c, ok := v.(*ir.Const); ok {
			b.WriteString(c.Ty.String())
			b.WriteByte(':')
		}
		b.WriteString(v.Operand())
		b.WriteByte(';')
	}
	return b.String()
}
