package constraint_test

import (
	"bytes"
	"testing"

	"repro/internal/analysis"
	"repro/internal/constraint"
	"repro/internal/idioms"
	"repro/internal/workloads"
)

// FuzzDecodePayload feeds the spill codec arbitrary bytes, as a corrupt blob
// on disk or a hostile snapshot from another replica would, decoded onto an
// arbitrary suite function. The decoder must never panic, and every payload
// it accepts must re-encode to exactly the same bytes: one entry, one
// encoding. The corpus is seeded with the (function, encoded outcome) pair
// of every (function × idiom) solve of the 21 workloads.
//
//	go test ./internal/constraint -run '^$' -fuzz '^FuzzDecodePayload$' -fuzztime 10s
func FuzzDecodePayload(f *testing.F) {
	ros := idioms.All()
	probs, err := idioms.Problems(ros)
	if err != nil {
		f.Fatal(err)
	}
	var infos []*analysis.Info
	seen := map[string]bool{}
	for _, w := range workloads.All() {
		mod, err := w.Compile()
		if err != nil {
			f.Fatalf("%s: compile: %v", w.Name, err)
		}
		for _, fn := range mod.Functions {
			info := analysis.Analyze(fn)
			fi := uint(len(infos))
			infos = append(infos, info)
			for _, idm := range ros {
				s := constraint.NewSolver(probs[idm.Name], info)
				payload, ok := constraint.EncodePayloadForTest(s.Solve(), s.Steps, info)
				if !ok {
					f.Fatalf("%s/%s/%s: solve outcome did not encode", w.Name, fn.Ident, idm.Name)
				}
				if !seen[string(payload)] {
					seen[string(payload)] = true
					f.Add(fi, payload)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, fi uint, payload []byte) {
		info := infos[fi%uint(len(infos))]
		out, ok := constraint.ReencodePayloadForTest(payload, info)
		if ok && !bytes.Equal(out, payload) {
			t.Fatalf("accepted payload re-encodes differently onto %s:\n  in:  %x\n  out: %x", info.Fn.Ident, payload, out)
		}
	})
}
