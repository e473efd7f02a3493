// Package experiments regenerates every table and figure of the paper's
// evaluation (§8): Table 1 (idiom detection vs Polly and ICC), Table 2
// (compile-time cost), Table 3 (per-API runtimes), Figure 16 (idiom classes
// per benchmark), Figure 17 (runtime coverage), Figure 18 (end-to-end
// speedups) and Figure 19 (comparison against handwritten OpenMP/OpenCL).
//
// Each driver returns both structured data (for tests and benchmarks) and a
// rendered text artifact (for the experiments CLI).
package experiments

import (
	"fmt"

	"repro/internal/detect"
	"repro/internal/hetero"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/transform"
	"repro/internal/workloads"
)

// BenchRun is the complete end-to-end pipeline result for one benchmark:
// compile, sequential run, detection, transformation, accelerated run.
type BenchRun struct {
	W *workloads.Workload

	// Detection over the (untransformed) module.
	Detection *detect.Result

	// SeqCounts are dynamic operation counts of the sequential run.
	SeqCounts interp.Counts

	// SeqReturn is the sequential run's result value (correctness anchor).
	SeqReturn interp.Value

	// RunCost splits the transformed run into host work and API calls.
	RunCost hetero.RunCost

	// Calls describe the applied transformations.
	Calls []*transform.APICall

	// Mismatch is non-empty when the transformed program's outputs diverged
	// from the sequential ones (it never is; the tests assert this).
	Mismatch string
}

// Pipeline runs the full flow for one workload at the given input scale.
// Every detected idiom is transformed; the transformed program executes
// under the interpreter with the heterogeneous runtime bound, and its
// outputs are compared byte-for-byte against the sequential run.
func Pipeline(w *workloads.Workload, scale int) (*BenchRun, error) {
	br := &BenchRun{W: w}

	// Sequential reference run.
	orig, err := w.Compile()
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", w.Name, err)
	}
	m1 := interp.NewMachine(orig)
	args1 := workloads.Materialize(w.Setup(scale))
	ret1, err := m1.Exec(orig.FunctionByName(w.Entry), args1...)
	if err != nil {
		return nil, fmt.Errorf("%s: sequential run: %w", w.Name, err)
	}
	br.SeqCounts = m1.Counts
	br.SeqReturn = ret1

	// Compile a fresh copy and detect through the shared stream (its memo
	// cache makes repeated detection of this workload across the figure
	// drivers an O(1) lookup), then transform that copy.
	det, err := detectWorkload(w)
	if err != nil {
		return nil, fmt.Errorf("%s: detect: %w", w.Name, err)
	}
	xf := det.Mod
	br.Detection = det
	for _, inst := range det.Instances {
		call, err := transform.Apply(xf, inst, transform.FixedBackend(inst.Idiom.Name))
		if err != nil {
			return nil, fmt.Errorf("%s: transform %s in %s: %w",
				w.Name, inst.Idiom.Name, inst.Function.Ident, err)
		}
		br.Calls = append(br.Calls, call)
	}
	if err := ir.VerifyModule(xf); err != nil {
		return nil, fmt.Errorf("%s: transformed module invalid: %w", w.Name, err)
	}

	// Accelerated run on identical fresh inputs.
	m2 := interp.NewMachine(xf)
	ledger := &hetero.Ledger{}
	if err := hetero.Bind(m2, ledger); err != nil {
		return nil, fmt.Errorf("%s: bind: %w", w.Name, err)
	}
	args2 := workloads.Materialize(w.Setup(scale))
	ret2, err := m2.Exec(xf.FunctionByName(w.Entry), args2...)
	if err != nil {
		return nil, fmt.Errorf("%s: transformed run: %w", w.Name, err)
	}
	br.RunCost = hetero.SplitCosts(m2.Counts, ledger)

	// Correctness: return value and every buffer must match bit for bit.
	if ret1.String() != ret2.String() {
		br.Mismatch = fmt.Sprintf("return %s vs %s", ret1, ret2)
	}
	for i := range args1 {
		if !args1[i].IsPtr() {
			continue
		}
		b1, b2 := args1[i].Ptr().Buf, args2[i].Ptr().Buf
		if b1 == nil || b2 == nil {
			continue
		}
		if string(b1.Data) != string(b2.Data) {
			br.Mismatch = fmt.Sprintf("buffer %s diverged", b1.Name)
		}
	}
	return br, nil
}

// LazyCopyBenchmarks are the iterative benchmarks the paper's red bars mark:
// data stays on the device between API calls.
var LazyCopyBenchmarks = map[string]bool{
	"CG": true, "lbm": true, "spmv": true, "stencil": true,
}

// Coverage returns the fraction of modelled sequential execution time spent
// inside the detected idioms (Figure 17's y axis). It is measured from the
// host side: the transformed run's work outside API calls is exactly the
// sequential program minus the idiom regions, interpreted on the same
// footing as the sequential reference. (The API call counts themselves
// reflect library-essential work — no interpreter loop bookkeeping — so
// they under-count the regions they replaced.)
func (br *BenchRun) Coverage() float64 {
	total := hetero.SequentialSeconds(br.SeqCounts)
	if total == 0 {
		return 0
	}
	host := hetero.DeviceByKind(hetero.CPU).HostSeconds(br.RunCost.Host)
	cov := 1 - host/total
	if cov < 0 {
		cov = 0
	}
	if cov > 1 {
		cov = 1
	}
	return cov
}

// SequentialSeconds is the modelled sequential runtime.
func (br *BenchRun) SequentialSeconds() float64 {
	return hetero.SequentialSeconds(br.SeqCounts)
}

// TouchedBytes sums the distinct buffers the API calls touched.
func (br *BenchRun) TouchedBytes() int64 {
	seen := map[*interp.Buffer]bool{}
	var n int64
	for _, c := range br.RunCost.Calls {
		for _, b := range c.Buffers {
			if !seen[b] {
				seen[b] = true
				n += int64(len(b.Data))
			}
		}
	}
	return n
}
