package constraint_test

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/idioms"
	"repro/internal/idl"
)

// TestGreedyOrderMatchesReference pins the indexed greedy variable ordering
// to the reference loop on every library constraint, the tenant AXPY pack of
// examples/customidiom and a pack at the 256-variable bound. The ordering
// sets every solve's steps, so it must not move, ties included.
func TestGreedyOrderMatchesReference(t *testing.T) {
	example, err := os.ReadFile("../../examples/customidiom/main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, axpy, ok := strings.Cut(string(example), "const axpyIDL = `")
	axpy, _, _ = strings.Cut(axpy, "`")
	if !ok || axpy == "" {
		t.Fatal("examples/customidiom no longer declares axpyIDL")
	}
	wide := func(n int) string {
		return fmt.Sprintf("Constraint X ( ( {v[i]} is add instruction ) for all i = 0..%d ) End", n)
	}
	sources := map[string]string{"library": idioms.LibrarySource, "axpy": axpy, "wide": wide(255)}
	compared := 0
	for _, name := range []string{"library", "axpy", "wide"} {
		prog, err := idl.ParseProgram(sources[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var tops []string
		for top := range prog.Specs {
			tops = append(tops, top)
		}
		sort.Strings(tops)
		for _, top := range tops {
			prob, err := constraint.Compile(prog, top, constraint.CompileOptions{Ordering: constraint.OrderAppearance})
			if err != nil {
				continue // a template needing parameters
			}
			got, want := constraint.GreedyOrdersForTest(prob)
			if !slices.Equal(got, want) {
				t.Errorf("%s/%s: greedy order\n got %v\nwant %v", name, top, got, want)
			}
			compared++
		}
	}
	if compared < 20 {
		t.Fatalf("compared %d constraints; the library alone has more", compared)
	}
	// Past the bound, compilation is refused before any ordering runs.
	prog, err := idl.ParseProgram(wide(4000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := constraint.Compile(prog, "X", constraint.CompileOptions{}); err == nil {
		t.Fatal("a 4001-variable constraint compiled")
	}
}
