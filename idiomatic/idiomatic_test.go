package idiomatic

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

const dotSource = `
double dot(double* x, double* y, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s = s + x[i]*y[i]; }
    return s;
}`

func dotArgs() []Value {
	x := NewBuffer("x", 8*8)
	y := NewBuffer("y", 8*8)
	for i := 0; i < 8; i++ {
		x.SetFloat64(i, float64(i))
		y.SetFloat64(i, 0.5)
	}
	return []Value{Buf(x), Buf(y), Int(8)}
}

func TestFacadeEndToEnd(t *testing.T) {
	prog, err := Default().Compile(context.Background(), "demo", dotSource)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.IR(), "fmul double") {
		t.Error("IR rendering lacks the multiply")
	}

	det, err := prog.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Instances) != 1 {
		t.Fatalf("instances = %d, want 1", len(det.Instances))
	}
	inst := det.Instances[0]
	if inst.Idiom != "Reduction" || inst.Class != "Scalar Reduction" || inst.Function != "dot" {
		t.Errorf("instance = %+v", inst)
	}
	if !strings.Contains(inst.Solution(), "iterator") {
		t.Error("solution rendering lacks the iterator binding")
	}
	if det.SolverSteps == 0 {
		t.Error("no solver effort recorded")
	}

	// Reference result before transformation.
	ref, err := prog.Run("dot", dotArgs()...)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Calls != 0 {
		t.Errorf("untransformed run made %d API calls", ref.Calls)
	}

	calls, err := Default().Accelerate(context.Background(), prog, det)
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || !strings.HasPrefix(calls[0].Extern, "lift.reduction#") {
		t.Errorf("calls = %+v", calls)
	}

	out, err := prog.Run("dot", dotArgs()...)
	if err != nil {
		t.Fatal(err)
	}
	if out.Calls != 1 {
		t.Errorf("transformed run made %d API calls, want 1", out.Calls)
	}
	if out.Return.String() != ref.Return.String() {
		t.Errorf("results diverge: %s vs %s", out.Return, ref.Return)
	}
	// 0+0.5+1+...+3.5 = 14 * 0.5... sum(i*0.5, i=0..7) = 14.
	if out.Return.Float() != 14 {
		t.Errorf("dot = %v, want 14", out.Return)
	}

	// Performance modelling surfaces.
	if out.SequentialSeconds() <= 0 {
		t.Error("sequential model must be positive")
	}
	if best, ok := out.EstimateBest(GPU); !ok || best.Seconds <= 0 {
		t.Errorf("GPU estimate = %+v %v", best, ok)
	}
}

func TestFacadeDetectOnly(t *testing.T) {
	prog, err := Default().Compile(context.Background(), "demo", dotSource)
	if err != nil {
		t.Fatal(err)
	}
	det, err := prog.DetectOnly("GEMM")
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Instances) != 0 {
		t.Errorf("GEMM-only detection found %d instances in a dot product", len(det.Instances))
	}
}

func TestFacadeMatchCustomIdiom(t *testing.T) {
	prog, err := Default().Compile(context.Background(), "demo", `
int f(int a, int b) { return (a*b) + (b*a); }`)
	if err != nil {
		t.Fatal(err)
	}
	sols, err := Default().MatchIDL(context.Background(), prog, `
Constraint TwoMuls
( {sum} is add instruction and
  {l} is first argument of {sum} and
  {l} is mul instruction and
  {r} is second argument of {sum} and
  {r} is mul instruction )
End`, "TwoMuls", "f")
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 {
		t.Errorf("solutions = %d, want 1", len(sols))
	}
}

// TestMatchIDLCancelMidSolve pins that a user IDL probe honours its context
// once the search has started: the probe below enumerates every 7-tuple of
// instructions and finds none, a search of hours, so only cancellation can
// end it within the test's bound.
func TestMatchIDLCancelMidSolve(t *testing.T) {
	prog, err := Default().Compile(context.Background(), "demo", dotSource)
	if err != nil {
		t.Fatal(err)
	}
	const probe = `
Constraint Endless
( {a} is an instruction and {b} is an instruction and
  {c} is an instruction and {d} is an instruction and
  {e} is an instruction and {f} is an instruction and
  {g} is an instruction and
  {f} is the same as {g} and {f} is not the same as {g} )
End`
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Default().MatchIDL(ctx, prog, probe, "Endless", "dot")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("probe finished before cancellation (err %v); it must outlast 50ms", err)
	default:
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("MatchIDL kept solving 5s after its context was cancelled")
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := Default().Compile(context.Background(), "bad", "not C at all {{{"); err == nil {
		t.Error("expected parse error")
	}
	prog, _ := Default().Compile(context.Background(), "demo", dotSource)
	if _, err := prog.Run("nonesuch"); err == nil {
		t.Error("expected missing-function error")
	}
	if _, err := Default().MatchIDL(context.Background(), prog, "Constraint X ( {a} is add instruction ) End", "Y", "dot"); err == nil {
		t.Error("expected unknown-constraint error")
	}
	if _, err := Default().MatchIDL(context.Background(), prog, "garbage", "X", "dot"); err == nil {
		t.Error("expected IDL parse error")
	}
}

func TestLibraryMetadata(t *testing.T) {
	if n := LibraryLineCount(); n < 300 || n > 600 {
		t.Errorf("library lines = %d, expected the paper's ~500 ballpark", n)
	}
	if !strings.Contains(LibrarySource(), "Constraint SPMV") {
		t.Error("library source lacks SPMV")
	}
}

// TestOffloadRankingsShared pins that every plan asking for the same ranking
// shares one copy (a client holding many results holds it once), and that a
// kind no profile serves is neither ranked nor kept.
func TestOffloadRankingsShared(t *testing.T) {
	a := offloadFor("gemm", 0, true, false)
	b := offloadFor("gemm", 0, true, false)
	if len(a) != 3 || &a[0] != &b[0] || &a[0].Choices[0] != &b[0].Choices[0] {
		t.Fatalf("gemm rankings: %d devices, shared %v", len(a), len(a) > 0 && &a[0] == &b[0])
	}
	if gpu := offloadFor("gemm", GPU, false, false); len(gpu) != 1 || gpu[0].Device != "GPU" {
		t.Fatalf("GPU-pinned gemm ranking = %+v", gpu)
	}
	if got := offloadFor("tenant-kind", 0, true, false); got != nil {
		t.Fatalf("unserved kind ranked %+v", got)
	}
	if _, kept := offloadRanks.Load(offloadKey{"tenant-kind", 0, true, false}); kept {
		t.Fatal("unserved kind kept in the ranking table")
	}
}
