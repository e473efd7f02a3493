package pipeline_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/detect"
	"repro/internal/ir"
	"repro/internal/pipeline"
)

const fairSource = `
double fsum(double* x, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s = s + x[i]; }
    return s;
}`

// TestWeightedFairCompileOrder pins the deficit-round-robin admission
// contract: with two backlogged clients at weights 2:1 and a single detect
// slot, modules are compiled in weight proportion, not submit order.
func TestWeightedFairCompileOrder(t *testing.T) {
	p, err := pipeline.New(pipeline.Options{
		Detect:      detect.Options{Workers: 2, NoMemo: true},
		DetectSlots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Pin the single detect slot open so both clients can backlog.
	started := make(chan struct{})
	release := make(chan struct{})
	blocker, err := p.SubmitOpts("blocker", func() (*ir.Module, error) {
		close(started)
		<-release
		return cc.Compile("fair", fairSource)
	}, pipeline.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	var mu sync.Mutex
	var order []string
	record := func(client string) pipeline.CompileFunc {
		return func() (*ir.Module, error) {
			mu.Lock()
			order = append(order, client)
			mu.Unlock()
			return cc.Compile("fair", fairSource)
		}
	}
	var jobs []*pipeline.Job
	// heavy floods first — submit order must not dictate service order.
	for i := 0; i < 8; i++ {
		j, err := p.SubmitOpts("heavy", record("heavy"), pipeline.SubmitOptions{Client: "heavy", Weight: 2})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for i := 0; i < 4; i++ {
		j, err := p.SubmitOpts("light", record("light"), pipeline.SubmitOptions{Client: "light", Weight: 1})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	close(release)
	if _, err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := collect(jobs); err != nil {
		t.Fatal(err)
	}

	// While both queues are backlogged (the first 6 picks), service must run
	// 2:1 — no FIFO burst of the flooding client.
	heavy, light := 0, 0
	for _, c := range order[:6] {
		if c == "heavy" {
			heavy++
		} else {
			light++
		}
	}
	if heavy != 4 || light != 2 {
		t.Fatalf("first 6 picks = %d heavy / %d light (order %v), want 4/2 for weights 2:1", heavy, light, order)
	}

	st := p.Stats()
	var sawHeavy, sawLight bool
	for _, row := range st.Clients {
		switch row.Name {
		case "heavy":
			sawHeavy = true
			if row.Weight != 2 || row.Served != 8 || row.Shed != 0 {
				t.Fatalf("heavy row = %+v, want weight 2 / served 8 / shed 0", row)
			}
		case "light":
			sawLight = true
			if row.Weight != 1 || row.Served != 4 {
				t.Fatalf("light row = %+v, want weight 1 / served 4", row)
			}
		}
	}
	if !sawHeavy || !sawLight {
		t.Fatalf("missing client rows in %+v", st.Clients)
	}
}

// TestClientRateLimited pins the token-bucket contract: a named client over
// its rate gets a *RateLimitedError with a retry hint, while the anonymous
// tier is exempt.
func TestClientRateLimited(t *testing.T) {
	p, err := pipeline.New(pipeline.Options{
		Detect:      detect.Options{Workers: 1, NoMemo: true},
		ClientRate:  0.001, // effectively no refill within the test
		ClientBurst: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	mod := func() (*ir.Module, error) { return cc.Compile("fair", fairSource) }
	so := pipeline.SubmitOptions{Client: "bursty"}
	var jobs []*pipeline.Job
	for i := 0; i < 2; i++ {
		j, err := p.SubmitOpts("ok", mod, so)
		if err != nil {
			t.Fatalf("submit %d within burst: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	_, err = p.SubmitOpts("over", mod, so)
	if !errors.Is(err, pipeline.ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	var rl *pipeline.RateLimitedError
	if !errors.As(err, &rl) {
		t.Fatalf("err = %T, want *RateLimitedError", err)
	}
	if rl.Client != "bursty" || rl.RetryAfter <= 0 {
		t.Fatalf("rate limit detail = %+v, want client bursty with positive RetryAfter", rl)
	}

	// Anonymous submissions are never rate limited.
	for i := 0; i < 5; i++ {
		j, err := p.SubmitOpts("anon", mod, pipeline.SubmitOptions{})
		if err != nil {
			t.Fatalf("anonymous submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	if _, err := collect(jobs); err != nil {
		t.Fatal(err)
	}

	for _, row := range p.Stats().Clients {
		if row.Name == "bursty" && row.Shed != 1 {
			t.Fatalf("bursty shed = %d, want 1", row.Shed)
		}
	}
}

// TestClientQueueBound pins the per-client overload contract: a named client
// at its in-flight bound is rejected with an error matching ErrOverloaded
// (and naming the client), without consuming global capacity for others.
func TestClientQueueBound(t *testing.T) {
	p, err := pipeline.New(pipeline.Options{
		Detect:      detect.Options{Workers: 2, NoMemo: true},
		DetectSlots: 1,
		ClientQueue: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	release := make(chan struct{})
	gated := func() (*ir.Module, error) {
		<-release
		return cc.Compile("fair", fairSource)
	}
	j1, err := p.SubmitOpts("a", gated, pipeline.SubmitOptions{Client: "tenant"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.SubmitOpts("b", gated, pipeline.SubmitOptions{Client: "tenant"})
	if !errors.Is(err, pipeline.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	// Another tenant and the anonymous tier still get in.
	j2, err := p.SubmitOpts("c", gated, pipeline.SubmitOptions{Client: "other"})
	if err != nil {
		t.Fatalf("other tenant blocked by tenant's bound: %v", err)
	}
	j3, err := p.SubmitOpts("d", gated, pipeline.SubmitOptions{})
	if err != nil {
		t.Fatalf("anonymous blocked by tenant's bound: %v", err)
	}

	close(release)
	if _, err := collect([]*pipeline.Job{j1, j2, j3}); err != nil {
		t.Fatal(err)
	}
}

// TestDetectSlotsGate pins that a tiny slot bound still drains everything:
// modules beyond the bound wait in client queues and enter as slots free, and
// every job completes with the same result.
func TestDetectSlotsGate(t *testing.T) {
	p, err := pipeline.New(pipeline.Options{
		Detect:      detect.Options{Workers: 2, NoMemo: true},
		DetectSlots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var jobs []*pipeline.Job
	for i := 0; i < 6; i++ {
		client := "a"
		if i%2 == 1 {
			client = "b"
		}
		j, err := p.SubmitOpts("mod", func() (*ir.Module, error) { return cc.Compile("fair", fairSource) },
			pipeline.SubmitOptions{Client: client})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	results, err := collect(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if len(res.Instances) != 1 {
			t.Fatalf("job %d: instances = %d, want 1 (reduction)", i, len(res.Instances))
		}
	}
	st := p.Stats()
	if st.DetectSlots != 1 || st.DetectActive != 0 || st.ReadyQueue != 0 {
		t.Fatalf("final stats = %+v, want drained slot gauges with DetectSlots 1", st)
	}

	// Drain deadline: all client gauges must be back to zero.
	deadline := time.Now().Add(5 * time.Second)
	for {
		done := true
		for _, row := range p.Stats().Clients {
			if row.InFlight != 0 {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client gauges did not drain: %+v", p.Stats().Clients)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCompileBehindSlotGate pins that the detect-slot gate is the only
// admission point: with one slot, a job compiles only once admitted, so at
// most one compile thunk runs at a time, and while it is blocked the other
// jobs wait uncompiled in the ready queue.
func TestCompileBehindSlotGate(t *testing.T) {
	p, err := pipeline.New(pipeline.Options{
		Detect:      detect.Options{Workers: 2, NoMemo: true},
		DetectSlots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var running, peak atomic.Int32
	started := make(chan struct{}, 3)
	release := make(chan struct{})
	thunk := func() (*ir.Module, error) {
		n := running.Add(1)
		for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
		}
		started <- struct{}{}
		<-release
		running.Add(-1)
		return cc.Compile("fair", fairSource)
	}
	var jobs []*pipeline.Job
	for i := 0; i < 3; i++ {
		j, err := p.SubmitOpts("gated", thunk, pipeline.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	<-started
	if st := p.Stats(); st.CompileQueue != 1 || st.ReadyQueue != 2 || st.DetectActive != 1 {
		t.Fatalf("stats while the first compile is blocked = %+v, want CompileQueue 1 / ReadyQueue 2 / DetectActive 1", st)
	}
	close(release)
	if _, err := collect(jobs); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != 1 {
		t.Fatalf("%d compile thunks ran at once, want 1 (compile must wait for a detect slot)", got)
	}
	if st := p.Stats(); st.CompileQueue != 0 || st.ReadyQueue != 0 || st.DetectActive != 0 {
		t.Fatalf("final stats = %+v, want drained gauges", st)
	}
}

// TestNegativeDetectSlotsRejected pins that a negative slot bound fails New
// instead of admitting every queued job at once.
func TestNegativeDetectSlotsRejected(t *testing.T) {
	if _, err := pipeline.New(pipeline.Options{
		Detect:      detect.Options{Workers: 1, NoMemo: true},
		DetectSlots: -1,
	}); err == nil {
		t.Fatal("New accepted DetectSlots -1")
	}
}
