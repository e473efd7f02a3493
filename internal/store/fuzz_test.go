package store

import (
	"bytes"
	"testing"

	"repro/internal/analysis"
	"repro/internal/constraint"
	"repro/internal/idioms"
	"repro/internal/workloads"
)

// payloadCapture is a SpillStore that only records what the memo spills.
type payloadCapture struct{ payloads [][]byte }

func (c *payloadCapture) Load(constraint.SpillKey) ([]byte, bool) { return nil, false }

func (c *payloadCapture) Write(_ constraint.SpillKey, payload []byte) error {
	c.payloads = append(c.payloads, payload)
	return nil
}

func (c *payloadCapture) WriteAsync(_ constraint.SpillKey, payload []byte, done func(err error)) bool {
	c.payloads = append(c.payloads, payload)
	done(nil)
	return true
}

// suitePayloads returns the distinct memo payloads of every (function ×
// idiom) solve of the 21 workloads, as a state directory would hold them.
func suitePayloads(f *testing.F) [][]byte {
	ros := idioms.All()
	probs, err := idioms.Problems(ros)
	if err != nil {
		f.Fatal(err)
	}
	var capture payloadCapture
	memo := constraint.NewSolveCache()
	memo.AttachStore(&capture)
	for _, w := range workloads.All() {
		mod, err := w.Compile()
		if err != nil {
			f.Fatalf("%s: compile: %v", w.Name, err)
		}
		for _, fn := range mod.Functions {
			info := analysis.Analyze(fn)
			fp := constraint.FingerprintInfo(info)
			for _, idm := range ros {
				s := constraint.NewSolver(probs[idm.Name], info)
				memo.Put(probs[idm.Name], fp, info, s.Solve(), s.Steps)
			}
		}
	}
	var out [][]byte
	seen := map[string]bool{}
	for _, p := range capture.payloads {
		if !seen[string(p)] {
			seen[string(p)] = true
			out = append(out, p)
		}
	}
	return out
}

// FuzzOpenContainer feeds the blob container reader arbitrary bytes, as a
// torn or corrupt file in a state directory would. It must never panic, and
// every blob it accepts must re-seal to exactly its own bytes. The corpus is
// the sealed memo payloads of the 21 workloads plus the torn and corrupt
// blobs of the store tests.
//
//	go test ./internal/store -run '^$' -fuzz '^FuzzOpenContainer$' -fuzztime 10s
func FuzzOpenContainer(f *testing.F) {
	var sealed []byte
	for _, p := range suitePayloads(f) {
		sealed = sealContainer(p)
		f.Add(sealed)
	}
	flipped := append([]byte(nil), sealed...)
	flipped[len(flipped)-1] ^= 0xff
	short := append([]byte(nil), sealed...)
	short[5] = 1
	f.Add([]byte{0x49, 0x44})
	f.Add(append([]byte("NOPE"), sealed[4:]...))
	f.Add(flipped)
	f.Add(short)
	f.Add(sealed[:len(sealed)/2])
	f.Fuzz(func(t *testing.T, raw []byte) {
		payload, ok := openContainer(raw)
		if ok && !bytes.Equal(sealContainer(payload), raw) {
			t.Fatalf("accepted blob re-seals differently:\n  in:  %x\n  out: %x", raw, sealContainer(payload))
		}
	})
}
