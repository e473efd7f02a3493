// Package idiomatic is the public interface of the reproduction of
// "Automatic Matching of Legacy Code to Heterogeneous APIs: An Idiomatic
// Approach" (Ginsbach et al., ASPLOS 2018).
//
// The blessed entry point is the Service: a long-lived, context-aware front
// door owning one detection stream — a worker pool that runs every module's
// compile, analyses and solves in per-client fair order — and a bounded
// intake, with a versioned JSON-encodable
// request/response model. DetectRequest → DetectResult covers detection;
// MatchRequest → MatchResult serves the paper's whole pipeline — detection,
// code replacement plans and per-device backend selection — and RegisterPack
// makes the idiom inventory itself runtime data (IDL idiom packs, installed
// live, copy-on-write versioned). cmd/idiomd serves the same model over
// HTTP.
//
//	svc, _ := idiomatic.NewService(idiomatic.ServiceOptions{})
//	defer svc.Close()
//	res, _ := svc.Match(ctx, idiomatic.MatchRequest{Name: "demo", Source: src})
//	// res.Findings, res.Plans (externs, unsound flags, ranked offload estimates)
//
// In-process consumers that go on to transform and execute programs use the
// Program path of the paper's Figure 1, still routed through the service:
//
//	prog, _ := svc.Compile(ctx, "demo", src)
//	det, _ := prog.Detect()                   // constraint-based idiom discovery
//	calls, _ := svc.Accelerate(ctx, prog, det) // replace idioms with API calls
//	out, _ := prog.Run("sum", args...)        // execute under the interpreter
//
// plus direct access to the Idiom Description Language for user-defined
// idioms (Service.MatchIDL for one-shot probes, Service.RegisterPack for
// full pipeline coverage), and to the heterogeneous performance models used
// by the paper's evaluation (see Devices, EstimateBest, Service.Backends).
package idiomatic

import (
	"context"
	"fmt"
	"time"

	"repro/internal/detect"
	"repro/internal/hetero"
	"repro/internal/idioms"
	"repro/internal/interp"
	"repro/internal/ir"
)

// Program is a compiled C program ready for idiom detection, transformation
// and execution. Programs are bound to the Service that compiled them;
// detection runs on that service's shared engine and memo cache.
type Program struct {
	Module *ir.Module

	svc *Service
}

// IR renders the program's SSA form like the paper's LLVM IR listings.
func (p *Program) IR() string { return p.Module.String() }

// Instance is one detected idiom occurrence.
type Instance struct {
	// Idiom is the matched idiom name (GEMM, SPMV, Histogram, Reduction,
	// Stencil1/2/3).
	Idiom string
	// Class is the paper's Table 1 category.
	Class string
	// Function is the containing function name.
	Function string

	inner detect.Instance
}

// Solution renders the constraint solution (the paper's Figure 5).
func (in *Instance) Solution() string { return in.inner.Solution.String() }

// Detection is the result of running the idiom library over a program.
type Detection struct {
	Instances []Instance
	// SolverSteps is the backtracking effort (compile-time cost, Table 2).
	SolverSteps int
	// Elapsed is the detection wall time.
	Elapsed time.Duration
}

// Detect runs the paper's idiom library (~500 lines of IDL) over the
// program, on the owning service's engine.
func (p *Program) Detect() (*Detection, error) {
	return p.svc.DetectProgram(context.Background(), p)
}

// DetectOnly restricts detection to the named idioms (order is merge
// precedence, as in detect.Options.Idioms).
func (p *Program) DetectOnly(names ...string) (*Detection, error) {
	return p.svc.DetectProgram(context.Background(), p, names...)
}

func wrapDetection(res *detect.Result) *Detection {
	d := &Detection{SolverSteps: res.SolverSteps, Elapsed: res.Elapsed}
	for _, inst := range res.Instances {
		d.Instances = append(d.Instances, Instance{
			Idiom:    inst.Idiom.Name,
			Class:    inst.Idiom.Class.String(),
			Function: inst.Function.Ident,
			inner:    inst,
		})
	}
	return d
}

// APICall describes one applied code replacement.
type APICall struct {
	// Extern is the backend-qualified symbol, e.g. "cusparse.spmv" or
	// "lift.reduction#sum_reduction_kernel".
	Extern string
	// Unsound marks replacements static analysis cannot prove safe (sparse
	// aliasing, paper §6.3).
	Unsound bool
	// RuntimeChecks lists the non-overlap checks a real deployment would
	// insert (dense idioms, paper §6.3).
	RuntimeChecks []string
	// Rendering is the Figure 6 style call listing.
	Rendering string
}

// Value is an execution argument or result.
type Value = interp.Value

// Int wraps an integer argument.
func Int(v int64) Value { return interp.IntValue(v) }

// Float wraps a floating-point argument.
func Float(v float64) Value { return interp.FloatValue(v) }

// Buffer is a memory object argument.
type Buffer = interp.Buffer

// NewBuffer allocates a zeroed buffer of n bytes.
func NewBuffer(name string, n int) *Buffer { return interp.NewBuffer(name, n) }

// Buf wraps a buffer as a pointer argument.
func Buf(b *Buffer) Value { return interp.PtrValue(interp.Pointer{Buf: b}) }

// RunResult carries a program execution's outcome.
type RunResult struct {
	Return Value
	// Counts are the dynamic operation counts, consumed by the performance
	// models.
	Counts interp.Counts
	// Calls is the number of heterogeneous API invocations (0 for
	// untransformed programs).
	Calls int

	runCost hetero.RunCost
}

// Run executes the named function under the interpreter. Transformed
// programs execute their API calls through the heterogeneous runtime, so
// results are bit-identical to the sequential original.
func (p *Program) Run(entry string, args ...Value) (*RunResult, error) {
	fn := p.Module.FunctionByName(entry)
	if fn == nil {
		return nil, fmt.Errorf("idiomatic: no function %q", entry)
	}
	m := interp.NewMachine(p.Module)
	ledger := &hetero.Ledger{}
	if err := hetero.Bind(m, ledger); err != nil {
		return nil, err
	}
	ret, err := m.Exec(fn, args...)
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Return:  ret,
		Counts:  m.Counts,
		Calls:   len(ledger.Calls),
		runCost: hetero.SplitCosts(m.Counts, ledger),
	}, nil
}

// Device identifies one of the paper's three evaluation platforms.
type Device = hetero.DeviceKind

// The paper's platforms.
const (
	CPU  = hetero.CPU
	IGPU = hetero.IGPU
	GPU  = hetero.GPU
)

// Choice is one (API, modelled seconds) option.
type Choice struct {
	API     string
	Seconds float64
}

// EstimateBest models the transformed run on the device, trying every
// applicable API and returning the fastest — the paper's §2.1 strategy
// ("we just try all applicable libraries and DSLs and pick the best").
func (r *RunResult) EstimateBest(dev Device) (Choice, bool) {
	best, ok := hetero.BestOnDevice(r.runCost, hetero.DeviceByKind(dev),
		hetero.TimingOptions{LazyCopy: true})
	return Choice{API: best.API, Seconds: best.Seconds}, ok
}

// SequentialSeconds models the sequential run of the counted work.
func (r *RunResult) SequentialSeconds() float64 {
	return hetero.SequentialSeconds(r.Counts)
}

// LibrarySource returns the built-in idiom library's IDL text.
func LibrarySource() string { return idioms.LibrarySource }

// LibraryLineCount reports the library's size in non-empty IDL lines (the
// paper quotes ≈500 for the complete idiom set).
func LibraryLineCount() int { return idioms.LibraryLineCount() }
