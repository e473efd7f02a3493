package idioms

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"weak"

	"repro/internal/constraint"
)

func TestCompilePackValidation(t *testing.T) {
	cases := []struct {
		name    string
		pack    string
		source  string
		tops    []TopSpec
		wantErr string
	}{
		{"empty name", "", LibrarySource, []TopSpec{{Top: "Reduction"}}, "pack name required"},
		{"no idioms", "p", LibrarySource, nil, "declares no idioms"},
		{"empty top", "p", LibrarySource, []TopSpec{{}}, "empty top constraint"},
		{"unknown top", "p", LibrarySource, []TopSpec{{Top: "NoSuchConstraint"}}, `unknown constraint "NoSuchConstraint"`},
		{"bad IDL", "p", "Constraint Broken (", []TopSpec{{Top: "Broken"}}, "idl:"},
		{"dup idiom", "p", LibrarySource, []TopSpec{{Top: "Reduction"}, {Name: "Reduction", Top: "GEMM"}}, `duplicate idiom "Reduction"`},
		{"bad class", "p", LibrarySource, []TopSpec{{Top: "Reduction", Class: "Nonsense"}}, `unknown class "Nonsense"`},
		{"bad scheme", "p", LibrarySource, []TopSpec{{Top: "Reduction", Scheme: "outline9"}}, `unknown transform scheme "outline9"`},
	}
	for _, tc := range cases {
		_, err := CompilePack(tc.pack, tc.source, tc.tops, 0)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}

	p, err := CompilePack("blas", LibrarySource, []TopSpec{
		{Name: "MyGEMM", Top: "GEMM", Class: "Matrix Op.", Scheme: "gemm", Kind: "gemm"},
		{Top: "Reduction"},
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.Version != 7 || len(p.Idioms) != 2 || p.Lines == 0 {
		t.Fatalf("pack = %+v", p)
	}
	idm, ok := p.Idiom("MyGEMM")
	if !ok || idm.Top != "GEMM" || idm.Class != ClassMatrixOp || idm.Scheme != "gemm" {
		t.Fatalf("MyGEMM = %+v ok=%v", idm, ok)
	}
	if idm2, _ := p.Idiom("Reduction"); idm2.Class != ClassDemo {
		t.Errorf("default class = %v, want Demo", idm2.Class)
	}
	// The pack compiles the library's own source, so its GEMM problem has
	// the built-in GEMM's identity and shares its memo entries.
	prob, ok := p.Problem("MyGEMM")
	builtin, err := Problem("GEMM")
	if err != nil {
		t.Fatal(err)
	}
	if !ok || prob == builtin || prob.ID != builtin.ID {
		t.Fatalf("pack GEMM problem = %p ok=%v, want a distinct compile with the built-in's ID", prob, ok)
	}
}

// wideSource declares one top-level constraint binding n+1 variables.
func wideSource(n int) string {
	return fmt.Sprintf("Constraint X ( ( {v[i]} is add instruction ) for all i = 0..%d ) End", n)
}

// TestCompilePackBoundsVariables pins the variable bound: a tenant
// constraint with thousands of variables is rejected before the
// superlinear variable ordering runs, naming its count and the bound, and
// every library idiom stays well inside it.
func TestCompilePackBoundsVariables(t *testing.T) {
	_, err := CompilePack("wide", wideSource(4000), []TopSpec{{Top: "X"}}, 0)
	if err == nil || !strings.Contains(err.Error(), "4001 variables exceed the bound of 256") {
		t.Fatalf("err = %v, want the variable bound", err)
	}
	if _, err := CompilePack("wide", wideSource(255), []TopSpec{{Top: "X"}}, 0); err != nil {
		t.Fatalf("256 variables: %v", err)
	}
	p, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	for _, idm := range p.Idioms {
		if prob, _ := p.Problem(idm.Name); len(prob.Vars) > 128 {
			t.Errorf("%s binds %d variables, near the bound", idm.Name, len(prob.Vars))
		}
	}
}

func TestRegistryCopyOnWrite(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.Pack("p"); ok {
		t.Fatal("pack in empty registry")
	}
	v1, err := r.Register("p", LibrarySource, []TopSpec{{Name: "X", Top: "Reduction"}})
	if err != nil {
		t.Fatal(err)
	}
	if v1.Version != 1 {
		t.Fatalf("first registration version = %d, want 1", v1.Version)
	}

	// Replace: the old snapshot object stays intact, the registry serves the
	// new one, and the version advances.
	v2, err := r.Register("p", LibrarySource, []TopSpec{{Name: "X", Top: "GEMM"}})
	if err != nil {
		t.Fatal(err)
	}
	if v2.Version != 2 {
		t.Fatalf("replacement version = %d, want 2", v2.Version)
	}
	cur, ok := r.Pack("p")
	if !ok || cur != v2 {
		t.Fatal("registry does not serve the replacement")
	}
	if idm, _ := v1.Idiom("X"); idm.Top != "Reduction" {
		t.Error("old snapshot mutated by re-registration")
	}
	p1, _ := v1.Problem("X")
	p2, _ := v2.Problem("X")
	if p1 == p2 || p1.ID == p2.ID {
		t.Error("replacement shares compiled problems with the superseded pack")
	}

	// A failed registration installs nothing.
	if _, err := r.Register("q", LibrarySource, []TopSpec{{Top: "Nope"}}); err == nil {
		t.Fatal("expected failure")
	}
	if _, ok := r.Pack("q"); ok {
		t.Fatal("failed registration installed a pack")
	}
	if got := r.Packs(); len(got) != 1 || got[0] != v2 {
		t.Fatalf("Packs() = %v", got)
	}
}

// TestRegistryBound pins the registration cap: distinct names beyond the
// bound are rejected, replacements always go through.
func TestRegistryBound(t *testing.T) {
	r := NewRegistrySize(2)
	tops := []TopSpec{{Name: "X", Top: "Reduction"}}
	for _, name := range []string{"a", "b"} {
		if _, err := r.Register(name, LibrarySource, tops); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Register("c", LibrarySource, tops); err == nil ||
		!strings.Contains(err.Error(), "registry full") {
		t.Fatalf("over-bound registration err = %v", err)
	}
	if _, err := r.Register("a", LibrarySource, []TopSpec{{Name: "X", Top: "GEMM"}}); err != nil {
		t.Fatalf("replacement at the bound rejected: %v", err)
	}
	if len(r.Packs()) != 2 {
		t.Fatalf("packs = %d, want 2", len(r.Packs()))
	}
}

// TestRegistryConcurrentReaders races Register against Pack/Packs readers
// under -race: snapshot loads must never observe a torn map.
func TestRegistryConcurrentReaders(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if p, ok := r.Pack("p"); ok {
					if _, probOK := p.Problem("X"); !probOK {
						t.Error("pack visible without its problems")
						return
					}
				}
				r.Packs()
			}
		}()
	}
	for i := 0; i < 20; i++ {
		top := "Reduction"
		if i%2 == 1 {
			top = "Histogram"
		}
		if _, err := r.Register("p", LibrarySource, []TopSpec{{Name: "X", Top: top}}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestReplacedPackIsCollectable pins that re-registering a pack releases
// the replaced version: its compiled problems and their collect nodes carry
// their own solver indexes, so no process-wide cache keeps them reachable.
func TestReplacedPackIsCollectable(t *testing.T) {
	r := NewRegistry()
	tops := []TopSpec{{Name: "X", Top: "Reduction"}}
	v1, err := r.Register("p", LibrarySource, tops)
	if err != nil {
		t.Fatal(err)
	}
	prob, ok := v1.Problem("X")
	if !ok {
		t.Fatal("v1 lacks its problem")
	}
	coll := findCollect(prob.Root)
	if coll == nil {
		t.Fatal("Reduction problem has no collect node")
	}
	wp, wc := weak.Make(prob), weak.Make(coll)
	v1, prob, coll = nil, nil, nil
	if _, err := r.Register("p", LibrarySource, tops); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if wp.Value() != nil || wc.Value() != nil {
		t.Fatalf("replaced pack still reachable after GC: problem %v, collect %v", wp.Value() != nil, wc.Value() != nil)
	}
}

// TestReplacedPackMemoizedIsCollectable pins that the solve memo holds no
// *Problem: a replaced pack whose solves are still cached is collectable,
// while the cache keeps counting (and serving, by ID) its entries.
func TestReplacedPackMemoizedIsCollectable(t *testing.T) {
	r := NewRegistry()
	tops := []TopSpec{{Name: "X", Top: "Reduction"}}
	memo := constraint.NewSolveCache()
	wp := func() weak.Pointer[constraint.Problem] {
		v1, err := r.Register("p", LibrarySource, tops)
		if err != nil {
			t.Fatal(err)
		}
		prob, _ := v1.Problem("X")
		info := analyzeSum(t)
		s := constraint.NewSolver(prob, info)
		sols := s.Solve()
		if len(sols) == 0 {
			t.Fatal("Reduction found nothing in sum")
		}
		memo.Put(prob, constraint.FingerprintInfo(info), info, sols, s.Steps)
		return weak.Make(prob)
	}()
	if memo.Len() != 1 {
		t.Fatalf("memo holds %d entries, want 1", memo.Len())
	}
	if _, err := r.Register("p", LibrarySource+"\n# revision 2\n", tops); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("replaced pack's problem still reachable after GC: the memo pins it")
	}
	if memo.Len() != 1 {
		t.Fatalf("memo holds %d entries after the replacement, want 1", memo.Len())
	}
}

func findCollect(n constraint.Node) *constraint.NCollect {
	switch t := n.(type) {
	case *constraint.NCollect:
		return t
	case *constraint.NAnd:
		for _, k := range t.Kids {
			if c := findCollect(k); c != nil {
				return c
			}
		}
	case *constraint.NOr:
		for _, k := range t.Kids {
			if c := findCollect(k); c != nil {
				return c
			}
		}
	}
	return nil
}
