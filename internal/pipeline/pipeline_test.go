package pipeline_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/constraint"
	"repro/internal/detect"
	"repro/internal/ir"
	"repro/internal/leakcheck"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// submit enqueues one compile thunk with default options, failing the test
// on a submit error.
func submit(t *testing.T, p *pipeline.Pipeline, name string, compile pipeline.CompileFunc) *pipeline.Job {
	t.Helper()
	job, err := p.SubmitOpts(name, compile, pipeline.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// collect waits for the given jobs and returns their results in the given
// (typically submit) order, failing on the first job error.
func collect(jobs []*pipeline.Job) ([]*detect.Result, error) {
	out := make([]*detect.Result, len(jobs))
	for i, j := range jobs {
		res, err := j.Wait()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.Name, err)
		}
		out[i] = res
	}
	return out, nil
}

func instanceKey(inst detect.Instance) string {
	s := fmt.Sprintf("%s|%s|%s|claims[", inst.Idiom.Name, inst.Function.Ident, inst.Solution)
	for _, c := range inst.Claims {
		s += c.Operand() + ","
	}
	return s + "]"
}

func resultKeys(res *detect.Result) []string {
	keys := make([]string, len(res.Instances))
	for i, inst := range res.Instances {
		keys[i] = instanceKey(inst)
	}
	return keys
}

// TestPipelineMatchesBatch is the tentpole determinism criterion: submitting
// every workload's compile thunk and collecting the jobs in submit order is
// byte-identical (instances and solver steps) to compiling everything first
// and calling detect.Modules, at 1, 4 and 8 workers. Run under -race this
// covers the full compile→detect overlap.
func TestPipelineMatchesBatch(t *testing.T) {
	leakcheck.Register(t)
	ws := workloads.All()
	var mods []*ir.Module
	for _, w := range ws {
		mod, err := w.Compile()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		mods = append(mods, mod)
	}
	want, err := detect.Modules(mods, detect.Options{NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p, err := pipeline.New(pipeline.Options{
				Detect: detect.Options{Workers: workers, Memo: constraint.NewSolveCache()},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			var jobs []*pipeline.Job
			for _, w := range ws {
				jobs = append(jobs, submit(t, p, w.Name, w.Compile))
			}
			got, err := collect(jobs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				wk, gk := resultKeys(want[i]), resultKeys(got[i])
				if len(wk) != len(gk) {
					t.Fatalf("%s: %d instances, want %d", ws[i].Name, len(gk), len(wk))
				}
				for j := range wk {
					if wk[j] != gk[j] {
						t.Errorf("%s: instance %d differs:\n  batch:    %s\n  pipeline: %s",
							ws[i].Name, j, wk[j], gk[j])
					}
				}
				if got[i].SolverSteps != want[i].SolverSteps {
					t.Errorf("%s: solver steps %d, want %d", ws[i].Name, got[i].SolverSteps, want[i].SolverSteps)
				}
				if got[i].Elapsed <= 0 {
					t.Errorf("%s: Elapsed = %v, want > 0 (per-module wall time)", ws[i].Name, got[i].Elapsed)
				}
			}
		})
	}
}

// TestDetectCancelMidSolve pins the completion path's error branch: with one
// detect slot, a heavy job cancelled while its solves are in flight finishes
// with context.Canceled, frees its slot so the jobs queued behind it complete
// with their sequential results, and leaves the slot gauges and the
// goroutine set drained after Close.
func TestDetectCancelMidSolve(t *testing.T) {
	leakcheck.Register(t)
	p, err := pipeline.New(pipeline.Options{
		Detect:      detect.Options{Workers: 2, Memo: constraint.NewSolveCache()},
		DetectSlots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	heavy, err := p.SubmitOpts("lbm", workloads.ByName("lbm").Compile, pipeline.SubmitOptions{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"EP", "sgemm"}
	var jobs []*pipeline.Job
	for _, n := range names {
		jobs = append(jobs, submit(t, p, n, workloads.ByName(n).Compile))
	}
	// A memo miss is counted as a fresh solve starts: cancel only once the
	// heavy job is past analysis and solving.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, misses := p.Engine().MemoStats(); misses > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("heavy job never started solving")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()

	if _, err := heavy.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("heavy job err = %v, want context.Canceled", err)
	}
	got, err := collect(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		mod, err := workloads.ByName(n).Compile()
		if err != nil {
			t.Fatal(err)
		}
		want, err := detect.Module(mod, detect.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wk, gk := resultKeys(want), resultKeys(got[i])
		if len(wk) != len(gk) {
			t.Fatalf("%s: %d instances, want %d", n, len(gk), len(wk))
		}
		for j := range wk {
			if wk[j] != gk[j] {
				t.Errorf("%s: instance %d differs:\n  sequential: %s\n  pipeline:   %s", n, j, wk[j], gk[j])
			}
		}
		if got[i].SolverSteps != want.SolverSteps {
			t.Errorf("%s: solver steps %d, want %d", n, got[i].SolverSteps, want.SolverSteps)
		}
	}
	if st := p.Stats(); st.DetectActive != 0 || st.ReadyQueue != 0 {
		t.Fatalf("final stats = %+v, want DetectActive 0 and ReadyQueue 0", st)
	}
}

// TestPipelineCompileError pins error isolation: a failing compile reports on
// its own job and the rest of the stream is unaffected.
func TestPipelineCompileError(t *testing.T) {
	leakcheck.Register(t)
	p, err := pipeline.New(pipeline.Options{Detect: detect.Options{Workers: 2, NoMemo: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	bad := submit(t, p, "bad.c", func() (*ir.Module, error) {
		return cc.Compile("bad.c", "int broken( {")
	})
	good := submit(t, p, "EP", workloads.ByName("EP").Compile)

	if _, err := bad.Wait(); err == nil {
		t.Error("broken source compiled without error")
	} else if !strings.Contains(err.Error(), "bad.c") && bad.Name != "bad.c" {
		t.Errorf("error lost job identity: %v", err)
	}
	res, err := good.Wait()
	if err != nil {
		t.Fatalf("healthy job failed alongside broken one: %v", err)
	}
	if len(res.Instances) == 0 {
		t.Error("healthy job detected nothing")
	}
}

// TestPipelineMemoAcrossSubmissions checks the cross-run memo path end to
// end: resubmitting the same sources through one long-lived pipeline
// recompiles them (fresh IR pointers) but performs zero fresh solves.
func TestPipelineMemoAcrossSubmissions(t *testing.T) {
	leakcheck.Register(t)
	p, err := pipeline.New(pipeline.Options{
		Detect: detect.Options{Workers: 4, Memo: constraint.NewSolveCache()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	names := []string{"CG", "sgemm", "stencil"}
	submitAll := func() []*pipeline.Job {
		var jobs []*pipeline.Job
		for _, n := range names {
			jobs = append(jobs, submit(t, p, n, workloads.ByName(n).Compile))
		}
		return jobs
	}

	first, err := collect(submitAll())
	if err != nil {
		t.Fatal(err)
	}
	hits1, misses1 := p.Engine().MemoStats()

	second, err := collect(submitAll())
	if err != nil {
		t.Fatal(err)
	}
	hits2, misses2 := p.Engine().MemoStats()
	if misses2 != misses1 {
		t.Errorf("resubmission performed %d fresh solves, want 0", misses2-misses1)
	}
	if hits2-hits1 != hits1+misses1 {
		t.Errorf("resubmission hit the memo %d times, want %d", hits2-hits1, hits1+misses1)
	}
	for i := range first {
		fk, sk := resultKeys(first[i]), resultKeys(second[i])
		if len(fk) != len(sk) {
			t.Fatalf("%s: instance counts differ across submissions", names[i])
		}
		for j := range fk {
			if fk[j] != sk[j] {
				t.Errorf("%s: instance %d differs across submissions", names[i], j)
			}
		}
		if first[i].SolverSteps != second[i].SolverSteps {
			t.Errorf("%s: steps differ across submissions", names[i])
		}
	}
}
