package idiomatic_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/idiomatic"
)

// The wire schema carries two map-typed fields — Finding.Solution and
// BackendInfo.Kinds — whose byte-level determinism rests entirely on
// encoding/json sorting map keys. These tests pin that
// contract from both sides: the encoder side (identical contents, hostile
// insertion orders, identical bytes) and the population side (repeated
// Backends calls marshal identically). If any of these fields is ever moved
// off encoding/json — a hand-rolled writer, a streaming encoder — the
// replacement must sort keys itself or these tests fail. The idiomvet
// mapdeterminism analyzer guards the same invariant statically on the
// population loops.

// marshalBoth builds two values via the supplied inserters (which add the
// same entries in opposite orders) and marshals each.
func marshalBoth[T any](t *testing.T, build func(insertReversed bool) T) ([]byte, []byte) {
	t.Helper()
	a, err := json.Marshal(build(false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(build(true))
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestFindingSolutionMarshalsSorted(t *testing.T) {
	entries := []struct{ k, v string }{
		{"%out", "%3"}, {"%acc", "%1"}, {"%n", "%7"}, {"%base", "%2"},
	}
	a, b := marshalBoth(t, func(rev bool) idiomatic.Finding {
		var f idiomatic.Finding
		f.Solution = map[string]string{}
		for i := range entries {
			e := entries[i]
			if rev {
				e = entries[len(entries)-1-i]
			}
			f.Solution[e.k] = e.v
		}
		return f
	})
	if !bytes.Equal(a, b) {
		t.Errorf("Finding.Solution encoding depends on insertion order:\n  %s\n  %s", a, b)
	}
}

// TestBackendsMarshalStable exercises the real population loop: Backends()
// fills BackendInfo.Kinds by ranging over maps, so two calls populate in
// different randomized orders — the wire bytes must come out identical.
func TestBackendsMarshalStable(t *testing.T) {
	svc, err := idiomatic.NewService(idiomatic.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	first, err := json.Marshal(svc.Backends())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		again, err := json.Marshal(svc.Backends())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("Backends encoding unstable across calls:\n  %s\n  %s", first, again)
		}
	}
}
