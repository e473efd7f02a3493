package detect_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/cc"
	"repro/internal/constraint"
	"repro/internal/detect"
	"repro/internal/idioms"
	"repro/internal/ir"
	"repro/internal/leakcheck"
	"repro/internal/workloads"
)

const fairSource = `
double fsum(double* x, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s = s + x[i]; }
    return s;
}`

func compileFair() (*ir.Module, error) { return cc.Compile("fair", fairSource) }

// waitQueued polls until the stream holds at least n queued tasks.
func waitQueued(t *testing.T, st *detect.Stream, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for st.Stats().Queued < n {
		if time.Now().After(deadline) {
			t.Fatalf("stream never queued %d tasks: %+v", n, st.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// blockPool occupies a one-worker stream with a compile task that runs
// until release is closed, and returns once that task is running.
func blockPool(t *testing.T, st *detect.Stream) (release chan struct{}, wait func() ([]*detect.Result, []error, []int)) {
	t.Helper()
	started := make(chan struct{})
	release = make(chan struct{})
	wait = detectAsync(st, []detect.Submission{{Compile: func() (*ir.Module, error) {
		close(started)
		<-release
		return compileFair()
	}}})
	<-started
	return release, wait
}

// recordedOrder submits n compile-only modules per client while the pool is
// blocked, in the order given, and returns the order in which their compile
// tasks ran. Each client's tasks are queued before the next client's.
func recordedOrder(t *testing.T, st *detect.Stream, clients []detect.Submission, n int) []string {
	t.Helper()
	release, waitBlocker := blockPool(t, st)
	var mu sync.Mutex
	var order []string
	var waits []func() ([]*detect.Result, []error, []int)
	for ci, c := range clients {
		subs := make([]detect.Submission, n)
		for i := range subs {
			sub := c
			sub.Compile = func() (*ir.Module, error) {
				mu.Lock()
				order = append(order, c.Client)
				mu.Unlock()
				return compileFair()
			}
			subs[i] = sub
		}
		waits = append(waits, detectAsync(st, subs))
		waitQueued(t, st, (ci+1)*n)
	}
	close(release)
	for _, w := range append(waits, waitBlocker) {
		_, errs, _ := w()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
	}
	return order
}

// TestStreamWeightedFairOrder pins weighted deficit round-robin over
// clients: with two backlogged clients at weights 2:1 on one worker, their
// tasks run 2:1, not in submit order, even though the heavier client queued
// all its work first.
func TestStreamWeightedFairOrder(t *testing.T) {
	leakcheck.Register(t)
	eng, err := detect.NewEngine(detect.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stream()
	defer st.Close()
	order := recordedOrder(t, st, []detect.Submission{
		{Client: "heavy", Weight: 2},
		{Client: "light", Weight: 1},
	}, 6)
	want := "heavy heavy light heavy heavy light heavy heavy light light light light"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("compile order = %s\nwant            %s", got, want)
	}
}

// TestStreamDeadlineNeverOutranksFairness pins that deadlines order only
// their own client's tasks: a client that sets a deadline on every
// submission still alternates with an equal-weight client that sets none.
func TestStreamDeadlineNeverOutranksFairness(t *testing.T) {
	leakcheck.Register(t)
	eng, err := detect.NewEngine(detect.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stream()
	defer st.Close()
	order := recordedOrder(t, st, []detect.Submission{
		{Client: "heavy", Deadline: time.Now().Add(time.Hour)},
		{Client: "light"},
	}, 4)
	want := "heavy light heavy light heavy light heavy light"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("compile order = %s\nwant            %s", got, want)
	}
}

// TestStreamCompileMatchesBatch pins compile as a stream task: submitting
// every workload's compile thunk concurrently is byte-identical (instances
// and solver steps) to compiling everything first and calling
// detect.Modules, at 1, 4 and 8 workers, and each Result carries its
// compiled module.
func TestStreamCompileMatchesBatch(t *testing.T) {
	leakcheck.Register(t)
	ws := workloads.All()
	mods, names := compileAll(t)
	want, err := detect.Modules(mods, detect.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng, err := detect.NewEngine(detect.Options{Workers: workers, Memo: constraint.NewSolveCache()})
			if err != nil {
				t.Fatal(err)
			}
			st := eng.Stream()
			subs := make([]detect.Submission, len(ws))
			for i, w := range ws {
				subs[i] = detect.Submission{Compile: w.Compile}
			}
			got, errs, _ := detectAsync(st, subs)()
			st.Close()
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
			sameResults(t, names, got, want)
			for i, res := range got {
				if res.Mod == nil || res.Mod.Ident != ws[i].Name {
					t.Errorf("%s: Result.Mod = %v, want the compiled module", names[i], res.Mod)
				}
			}
		})
	}
}

// TestStreamCompileError pins error isolation: a failing compile fails only
// its own call, and a module detected beside it is unaffected.
func TestStreamCompileError(t *testing.T) {
	leakcheck.Register(t)
	eng, err := detect.NewEngine(detect.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stream()
	defer st.Close()
	res, errs, _ := detectAsync(st, []detect.Submission{
		{Compile: func() (*ir.Module, error) { return cc.Compile("bad.c", "int broken( {") }},
		{Compile: workloads.ByName("EP").Compile},
	})()
	if errs[0] == nil || res[0] != nil {
		t.Errorf("broken source: result %v, err %v; want only an error", res[0], errs[0])
	}
	if errs[1] != nil || len(res[1].Instances) == 0 {
		t.Errorf("healthy module beside a broken one: err %v, result %+v", errs[1], res[1])
	}
}

// TestStreamCancelledSkipsCompile pins that a submission cancelled while
// its compile task is queued never runs the thunk and fails with the
// context error.
func TestStreamCancelledSkipsCompile(t *testing.T) {
	leakcheck.Register(t)
	eng, err := detect.NewEngine(detect.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stream()
	defer st.Close()
	release, waitBlocker := blockPool(t, st)
	var compiled atomic.Bool
	ctx, cancel := context.WithCancel(context.Background())
	wait := detectAsync(st, []detect.Submission{{Ctx: ctx, Compile: func() (*ir.Module, error) {
		compiled.Store(true)
		return compileFair()
	}}})
	waitQueued(t, st, 1)
	cancel()
	close(release)
	if _, errs, _ := wait(); !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("victim err = %v, want context.Canceled", errs[0])
	}
	if compiled.Load() {
		t.Error("cancelled submission ran its compile thunk; queued work must be shed")
	}
	if _, errs, _ := waitBlocker(); errs[0] != nil {
		t.Fatal(errs[0])
	}
}

// TestStreamCompileOnPool pins that compile runs on the shared pool: with
// one worker at most one compile thunk runs at a time, and while it is
// blocked the others wait as queued tasks, visible in the stream's gauges.
func TestStreamCompileOnPool(t *testing.T) {
	leakcheck.Register(t)
	eng, err := detect.NewEngine(detect.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stream()
	defer st.Close()
	var running, peak atomic.Int32
	release := make(chan struct{})
	thunk := func() (*ir.Module, error) {
		n := running.Add(1)
		for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
		}
		<-release
		running.Add(-1)
		return compileFair()
	}
	subs := []detect.Submission{{Compile: thunk}, {Compile: thunk}, {Compile: thunk}}
	wait := detectAsync(st, subs)
	waitQueued(t, st, 2)
	for running.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	if ss := st.Stats(); ss.Compiling != 3 || ss.Queued != 2 || ss.Clients[""] != 2 || ss.Active != 1 {
		t.Fatalf("stats while the first compile is blocked = %+v, want Compiling 3 / Queued 2 / Active 1", ss)
	}
	close(release)
	if _, errs, _ := wait(); errors.Join(errs...) != nil {
		t.Fatal(errors.Join(errs...))
	}
	if got := peak.Load(); got != 1 {
		t.Fatalf("%d compile thunks ran at once on one worker, want 1", got)
	}
	if ss := st.Stats(); ss.Compiling != 0 || ss.Queued != 0 || len(ss.Clients) != 0 {
		t.Fatalf("final stats = %+v, want drained gauges and no idle client state", ss)
	}
}

// TestStreamPanicContained pins the task boundary: a submission whose
// compile thunk panics, and one whose solve panics, each fail alone with an
// in-band internal error while the suite detected beside them stays
// byte-identical to Engine.Modules, and the stream counts both panics. The
// solve panic is on a one-function module with a one-idiom roster, so it is
// exactly one task: Panics counts tasks, and the solves of a many-function
// module may all be running when the first of them panics.
func TestStreamPanicContained(t *testing.T) {
	leakcheck.Register(t)
	mods, names := compileAll(t)
	want, err := detect.Modules(mods, detect.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := detect.NewEngine(detect.Options{Workers: 4, Memo: constraint.NewSolveCache()})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stream()
	fair, err := compileFair()
	if err != nil {
		t.Fatal(err)
	}
	if len(fair.Functions) != 1 {
		t.Fatalf("fair module has %d functions, want 1", len(fair.Functions))
	}
	// A collect whose template panics when the solver instantiates it.
	broken := &constraint.Problem{Root: &constraint.NCollect{Min: 1, Instantiate: func(int) (constraint.Node, error) {
		panic("solve blew up")
	}}}
	var subs []detect.Submission
	for _, mod := range mods {
		subs = append(subs, detect.Submission{Mod: mod})
	}
	subs = append(subs,
		detect.Submission{Compile: func() (*ir.Module, error) { panic("compile blew up") }},
		detect.Submission{Mod: fair, Roster: []detect.Resolved{{Idiom: idioms.Idiom{Name: "Broken"}, Prob: broken}}},
	)
	got, errs, _ := detectAsync(st, subs)()
	n := len(mods)
	for i, msg := range []string{"internal error: compile blew up", "internal error: solve blew up"} {
		if errs[n+i] == nil || !strings.HasPrefix(errs[n+i].Error(), msg) || got[n+i] != nil {
			t.Errorf("panicking submission %d: result %v, err %v; want an error starting %q", i, got[n+i], errs[n+i], msg)
		}
	}
	if err := errors.Join(errs[:n]...); err != nil {
		t.Fatal(err)
	}
	sameResults(t, names, got[:n], want)
	if p := st.Stats().Panics; p != 2 {
		t.Errorf("Panics = %d, want 2", p)
	}
	for _, fn := range fair.Functions {
		info := analysis.Analyze(fn)
		if _, _, ok := eng.Memo().Get(broken, constraint.FingerprintInfo(info), info); ok {
			t.Errorf("%s: the panicking solve was memoized", fn.Ident)
		}
	}
	// The stream keeps serving after the panics.
	if res, err := st.Detect(detect.Submission{Compile: compileFair}); err != nil || len(res.Instances) != 1 {
		t.Errorf("detect after panics: %v, %v", res, err)
	}
	st.Close()
}
