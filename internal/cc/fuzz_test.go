package cc_test

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/workloads"
)

// FuzzCompile checks that the C frontend never panics: tenant source reaches
// cc.Compile on the server, so any input must yield a module or an error.
// The corpus is seeded with the 21 workload sources; crashers found by
// fuzzing are committed under testdata/fuzz/FuzzCompile and replay in every
// `go test` run.
func FuzzCompile(f *testing.F) {
	for _, w := range workloads.All() {
		f.Add(w.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		cc.Compile("fuzz.c", src)
	})
}
