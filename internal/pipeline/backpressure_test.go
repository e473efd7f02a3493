package pipeline_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/detect"
	"repro/internal/ir"
	"repro/internal/pipeline"
)

const bpSource = `
double bpsum(double* x, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s = s + x[i]; }
    return s;
}`

// TestSubmitOverload pins the intake backpressure contract: with MaxQueue in
// force, submissions beyond the bound fail fast with ErrOverloaded, and
// capacity frees up again as in-flight jobs finish.
func TestSubmitOverload(t *testing.T) {
	p, err := pipeline.New(pipeline.Options{
		Detect:      detect.Options{Workers: 2, NoMemo: true},
		DetectSlots: 1,
		MaxQueue:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Gate the compile thunks so the first two jobs pin the queue open.
	release := make(chan struct{})
	gated := func() (*ir.Module, error) {
		<-release
		return cc.Compile("bp", bpSource)
	}
	j1, err := p.SubmitOpts("a", gated, pipeline.SubmitOptions{})
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	j2, err := p.SubmitOpts("b", gated, pipeline.SubmitOptions{})
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if _, err := p.SubmitOpts("c", gated, pipeline.SubmitOptions{}); !errors.Is(err, pipeline.ErrOverloaded) {
		t.Fatalf("submit 3: err = %v, want ErrOverloaded", err)
	}
	if st := p.Stats(); st.InFlight != 2 || st.MaxQueue != 2 {
		t.Fatalf("stats = %+v, want InFlight 2 / MaxQueue 2", st)
	}

	close(release)
	for _, j := range []*pipeline.Job{j1, j2} {
		if _, err := j.Wait(); err != nil {
			t.Fatalf("%s: %v", j.Name, err)
		}
	}
	// Drained: intake must accept again.
	j4, err := p.SubmitOpts("d", func() (*ir.Module, error) { return cc.Compile("bp", bpSource) }, pipeline.SubmitOptions{})
	if err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	res, err := j4.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 1 {
		t.Fatalf("instances = %d, want 1 (reduction)", len(res.Instances))
	}
	if st := p.Stats(); st.InFlight != 0 || st.Submitted != 3 || st.Completed != 3 {
		t.Fatalf("final stats = %+v, want 3 submitted / 3 completed / 0 in flight", st)
	}
}

// TestSubmitOptsAfterClose pins the non-panicking close contract of the
// serving path.
func TestSubmitOptsAfterClose(t *testing.T) {
	p, err := pipeline.New(pipeline.Options{Detect: detect.Options{Workers: 1, NoMemo: true}})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := p.SubmitOpts("x", func() (*ir.Module, error) { return cc.Compile("bp", bpSource) },
		pipeline.SubmitOptions{}); !errors.Is(err, pipeline.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestSubmitCtxCancelledShedsCompile pins that a job cancelled while queued
// never runs its compile thunk and finishes with the context error.
func TestSubmitCtxCancelledShedsCompile(t *testing.T) {
	p, err := pipeline.New(pipeline.Options{
		Detect:      detect.Options{Workers: 2, NoMemo: true},
		DetectSlots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Occupy the single detect slot so the cancelled job stays queued.
	release := make(chan struct{})
	blocker, err := p.SubmitOpts("blocker", func() (*ir.Module, error) {
		<-release
		return cc.Compile("bp", bpSource)
	}, pipeline.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var compiled atomic.Bool
	ctx, cancel := context.WithCancel(context.Background())
	victim, err := p.SubmitOpts("victim", func() (*ir.Module, error) {
		compiled.Store(true)
		return cc.Compile("bp", bpSource)
	}, pipeline.SubmitOptions{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	close(release)

	if _, err := victim.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("victim err = %v, want context.Canceled", err)
	}
	if compiled.Load() {
		t.Error("cancelled job ran its compile thunk; queued work must be shed")
	}
	if _, err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}

	// The pipeline must fully drain after shedding.
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline did not drain: %+v", p.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
