package idioms

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// FuzzCompilePack checks the body of POST /v1/idioms: IDL parsing plus
// CompilePack must yield a pack or an error for any tenant source and top
// name, never a panic, and every problem it compiles carries a non-zero ID
// (so the solve memo can key on it). The corpus is seeded with pack-sized
// sources: the AXPY pack of examples/customidiom and the single-idiom slice
// of the library behind every built-in and extension top (the soak's packs register the
// Reduction top), plus one constraint over the variable bound. Seeding with the whole library stalls the fuzzer: each
// execution re-parses and re-flattens ~20 KB. Crashers found by fuzzing are
// committed under testdata/fuzz/FuzzCompilePack and replay in every `go
// test` run.
func FuzzCompilePack(f *testing.F) {
	example, err := os.ReadFile("../../examples/customidiom/main.go")
	if err != nil {
		f.Fatal(err)
	}
	_, axpy, ok := strings.Cut(string(example), "const axpyIDL = `")
	axpy, _, _ = strings.Cut(axpy, "`")
	if !ok || axpy == "" {
		f.Fatal("examples/customidiom no longer declares axpyIDL")
	}
	f.Add(axpy, "AXPY")
	for _, idm := range library {
		f.Add(librarySlice(f, idm.Top), idm.Top)
	}
	// Thousands of variables: rejected by the variable bound, where it once
	// took the variable ordering over 20 s.
	f.Add(wideSource(4000), "X")
	f.Fuzz(func(t *testing.T, src, top string) {
		p, err := CompilePack("fuzz", src, []TopSpec{{Top: top}}, 1)
		if err != nil {
			return
		}
		if prob, ok := p.Problem(top); !ok || prob.ID == ([32]byte{}) {
			t.Fatalf("compiled pack problem %q: ok=%v, zero ID", top, ok)
		}
	})
}

var inheritsRE = regexp.MustCompile(`inherits\s+(\w+)`)

// librarySlice returns the library's Constraint blocks that top needs: its
// own and, transitively, every block it inherits, in library order.
func librarySlice(tb testing.TB, top string) string {
	tb.Helper()
	blocks := map[string]string{}
	var order []string
	for _, b := range strings.SplitAfter(LibrarySource, "\nEnd") {
		i := strings.Index(b, "Constraint ")
		if i < 0 {
			continue
		}
		name := strings.Fields(b[i:])[1]
		blocks[name] = b[i:]
		order = append(order, name)
	}
	need := map[string]bool{}
	var walk func(string)
	walk = func(name string) {
		b, ok := blocks[name]
		if !ok {
			tb.Fatalf("library has no constraint %q", name)
		}
		if need[name] {
			return
		}
		need[name] = true
		for _, m := range inheritsRE.FindAllStringSubmatch(b, -1) {
			walk(m[1])
		}
	}
	walk(top)
	var sb strings.Builder
	for _, name := range order {
		if need[name] {
			sb.WriteString(blocks[name])
			sb.WriteString("\n")
		}
	}
	return sb.String()
}
