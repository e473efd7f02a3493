package constraint_test

import (
	"encoding/hex"
	"testing"

	"repro/internal/analysis"
	"repro/internal/constraint"
	"repro/internal/idioms"
	"repro/internal/workloads"
)

// cgSumReductionPayload is the spill payload of the built-in Reduction
// solve of CG's cg_sum: one solution whose bindings include a constant.
// State directories hold exactly these bytes, so the constant may only
// change together with memoPayloadVersion, and such a change makes every
// existing state directory re-solve.
const cgSumReductionPayload = "02130111086261636b65646765000c000005626567696e000500000a636f6d70617269736f6e000300000567756172640004000009696e6372656d656e74000b000008696e645f696e6974020006646f75626c6501300a697465725f626567696e020003693332013008697465725f656e6401010000086974657261746f7200010000096e65775f76616c756500090000096f6c645f76616c75650002000009707265637572736f72000000000f726561645b305d2e616464726573730006000014726561645b305d2e626173655f706f696e7465720100000011726561645b305d2e6765705f696e646578000500000d726561645f76616c75655b305d0007000009737563636573736f72000d0000"

// TestPayloadBytesPinned pins the spill codec's bytes for one suite solve,
// so a codec change that keeps round-tripping but moves the bytes has to
// be deliberate.
func TestPayloadBytesPinned(t *testing.T) {
	mod, err := workloads.ByName("CG").Compile()
	if err != nil {
		t.Fatal(err)
	}
	fn := mod.FunctionByName("cg_sum")
	if fn == nil {
		t.Fatal("CG has no cg_sum")
	}
	prob, err := idioms.Problem("Reduction")
	if err != nil {
		t.Fatal(err)
	}
	info := analysis.Analyze(fn)
	s := constraint.NewSolver(prob, info)
	payload, ok := constraint.EncodePayloadForTest(s.Solve(), s.Steps, info)
	if !ok {
		t.Fatal("solve outcome did not encode")
	}
	if got := hex.EncodeToString(payload); got != cgSumReductionPayload {
		t.Errorf("cg_sum Reduction payload =\n  %s\nwant\n  %s", got, cgSumReductionPayload)
	}
}
