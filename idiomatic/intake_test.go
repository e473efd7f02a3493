package idiomatic

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/detect"
	"repro/internal/ir"
	"repro/internal/leakcheck"
)

// gatedCompile returns a compile thunk that blocks until release closes, so
// the submitting request stays in flight as long as a test needs.
func gatedCompile(release <-chan struct{}) func() (*ir.Module, error) {
	return func() (*ir.Module, error) {
		<-release
		return cc.Compile("dot.c", dotSource)
	}
}

// submitAs admits one request under client cl with the given compile thunk.
func submitAs(s *Service, cl Client, compile func() (*ir.Module, error)) (*Task, error) {
	ctx := WithClient(context.Background(), cl)
	return s.submit(ctx, DetectRequest{Name: "dot.c"}, nil, detect.Submission{Compile: compile})
}

func waitAll(t *testing.T, tasks ...*Task) {
	t.Helper()
	for _, task := range tasks {
		if err := task.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServiceQueueLimit pins the intake backpressure contract: with
// QueueLimit in force, submissions beyond the bound fail fast with
// ErrOverloaded, and capacity frees up again as in-flight requests finish.
func TestServiceQueueLimit(t *testing.T) {
	leakcheck.Register(t)
	svc, err := NewService(ServiceOptions{Workers: 2, NoMemo: true, QueueLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	release := make(chan struct{})
	t1, err := submitAs(svc, Client{}, gatedCompile(release))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := submitAs(svc, Client{}, gatedCompile(release))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submitAs(svc, Client{}, gatedCompile(release)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit 3: err = %v, want ErrOverloaded", err)
	}
	if st := svc.Stats(); st.InFlight != 2 || st.QueueLimit != 2 {
		t.Fatalf("stats = %+v, want InFlight 2 / QueueLimit 2", st)
	}
	close(release)
	waitAll(t, t1, t2)
	res, err := svc.Detect(context.Background(), DetectRequest{Name: "dot.c", Source: dotSource})
	if err != nil || res.Err != "" || len(res.Findings) != 1 {
		t.Fatalf("submit after drain: %+v, %v", res, err)
	}
	if st := svc.Stats(); st.InFlight != 0 || st.Submitted != 3 || st.Completed != 3 {
		t.Fatalf("final stats = %+v, want 3 submitted / 3 completed / 0 in flight", st)
	}
}

// TestServiceSubmitAfterClose pins the non-panicking close contract.
func TestServiceSubmitAfterClose(t *testing.T) {
	svc, err := NewService(ServiceOptions{Workers: 1, NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if _, err := svc.Submit(context.Background(), DetectRequest{Source: dotSource}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestServiceClientRateLimited pins the token-bucket contract: a named
// client over its rate gets a *RateLimitedError with a retry hint, while the
// anonymous tier is exempt.
func TestServiceClientRateLimited(t *testing.T) {
	leakcheck.Register(t)
	svc, err := NewService(ServiceOptions{
		Workers: 1, NoMemo: true,
		ClientRate:  0.001, // effectively no refill within the test
		ClientBurst: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	req := DetectRequest{Name: "dot.c", Source: dotSource}
	bursty := WithClient(context.Background(), Client{Name: "bursty"})
	var tasks []*Task
	for i := 0; i < 2; i++ {
		task, err := svc.Submit(bursty, req)
		if err != nil {
			t.Fatalf("submit %d within burst: %v", i, err)
		}
		tasks = append(tasks, task)
	}
	_, err = svc.Submit(bursty, req)
	var rl *RateLimitedError
	if !errors.Is(err, ErrRateLimited) || !errors.As(err, &rl) {
		t.Fatalf("err = %v, want a *RateLimitedError", err)
	}
	if rl.Client != "bursty" || rl.RetryAfter <= 0 {
		t.Fatalf("rate limit detail = %+v, want client bursty with positive RetryAfter", rl)
	}
	for i := 0; i < 5; i++ {
		task, err := svc.Submit(context.Background(), req)
		if err != nil {
			t.Fatalf("anonymous submit %d: %v", i, err)
		}
		tasks = append(tasks, task)
	}
	waitAll(t, tasks...)
	for _, row := range svc.Stats().Clients {
		if row.Name == "bursty" && (row.Shed != 1 || row.Served != 2) {
			t.Fatalf("bursty row = %+v, want shed 1 / served 2", row)
		}
	}
}

// TestServiceClientQueueBound pins the per-client overload contract: a named
// client at its in-flight bound is rejected with an error matching
// ErrOverloaded and naming the client, while other tenants and the
// anonymous tier still get in.
func TestServiceClientQueueBound(t *testing.T) {
	leakcheck.Register(t)
	svc, err := NewService(ServiceOptions{Workers: 2, NoMemo: true, ClientQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	release := make(chan struct{})
	t1, err := submitAs(svc, Client{Name: "tenant"}, gatedCompile(release))
	if err != nil {
		t.Fatal(err)
	}
	_, err = submitAs(svc, Client{Name: "tenant"}, gatedCompile(release))
	if !errors.Is(err, ErrOverloaded) || !strings.Contains(err.Error(), `"tenant"`) {
		t.Fatalf("err = %v, want ErrOverloaded naming the tenant", err)
	}
	t2, err := submitAs(svc, Client{Name: "other"}, gatedCompile(release))
	if err != nil {
		t.Fatalf("other tenant blocked by tenant's bound: %v", err)
	}
	t3, err := submitAs(svc, Client{}, gatedCompile(release))
	if err != nil {
		t.Fatalf("anonymous blocked by tenant's bound: %v", err)
	}
	close(release)
	waitAll(t, t1, t2, t3)
}

// TestServicePanicInBand pins panic containment through the service: a
// request whose compile panics gets an in-band internal error, /statsz
// counts it, and the service keeps serving. The frontend crasher that used
// to panic now fails in-band as an ordinary compile error.
func TestServicePanicInBand(t *testing.T) {
	leakcheck.Register(t)
	svc, err := NewService(ServiceOptions{Workers: 2, NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	task, err := submitAs(svc, Client{}, func() (*ir.Module, error) { panic("frontend bug") })
	if err != nil {
		t.Fatal(err)
	}
	if res := task.Result(0); res.Err != "internal error: frontend bug" {
		t.Fatalf("panicking request: err = %q, want the in-band internal error", res.Err)
	}
	if p := svc.Stats().Panics; p != 1 {
		t.Fatalf("panics = %d, want 1", p)
	}
	res, err := svc.Detect(context.Background(), DetectRequest{Name: "redef.c", Source: "void A(int m, int n){} void A(int m){}"})
	if err != nil || res.Err != "cc: redefinition of A" {
		t.Fatalf("crasher source: %+v, %v; want the in-band redefinition error", res, err)
	}
	res, err = svc.Detect(context.Background(), DetectRequest{Name: "dot.c", Source: dotSource})
	if err != nil || res.Err != "" || len(res.Findings) != 1 {
		t.Fatalf("service after a panic: %+v, %v", res, err)
	}
}
