package idiomatic

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/ir"
	"repro/internal/workloads"
)

// canonicalJSON renders a wire result with the non-deterministic fields
// (wall time, memo counters) zeroed, so byte equality pins everything the
// protocol guarantees to be deterministic.
func canonicalJSON(t *testing.T, r DetectResult) string {
	t.Helper()
	r.ElapsedNs = 0
	r.Memo = MemoSnapshot{}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func workloadRequests(opts RequestOptions) []DetectRequest {
	var reqs []DetectRequest
	for _, w := range workloads.All() {
		reqs = append(reqs, DetectRequest{Name: w.Name, Source: w.Source, Opts: opts})
	}
	return reqs
}

// wantWire builds the reference wire results straight from the batch engine:
// compile all workloads, detect with detect.Modules, convert with the same
// WireResult encoding.
func wantWire(t *testing.T, opts RequestOptions) []DetectResult {
	t.Helper()
	ws := workloads.All()
	mods := make([]*ir.Module, len(ws))
	for i, w := range ws {
		mod, err := w.Compile()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		mods[i] = mod
	}
	ress, err := detect.Modules(mods, detect.Options{NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]DetectResult, len(ress))
	for i, res := range ress {
		out[i] = WireResult(i, ws[i].Name, res, opts)
	}
	return out
}

// TestServiceStreamMatchesModules is the service-level determinism
// criterion: streaming the full 21-workload suite through DetectStream and
// reassembling by sequence number is byte-identical (canonical wire
// encoding, findings with full solutions) to detect.Modules over the same
// batch; DetectBatch must agree as well. In the sequential subtest each
// search is one sequential backtracking solve and the pool schedules whole
// (function × idiom) tasks.
func TestServiceStreamMatchesModules(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
		testServiceStreamMatchesModules(t, ServiceOptions{Workers: 4})
	})
}

func testServiceStreamMatchesModules(t *testing.T, sopts ServiceOptions) {
	opts := RequestOptions{Solutions: true}
	want := wantWire(t, opts)
	reqs := workloadRequests(opts)

	svc, err := NewService(sopts)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ch, err := svc.DetectStream(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*DetectResult, len(reqs))
	for res := range ch {
		res := res
		if res.Err != "" {
			t.Fatalf("seq %d (%s): %s", res.Seq, res.Name, res.Err)
		}
		if res.Seq < 0 || res.Seq >= len(reqs) || got[res.Seq] != nil {
			t.Fatalf("bad or duplicate seq %d", res.Seq)
		}
		got[res.Seq] = &res
	}
	for i := range want {
		if got[i] == nil {
			t.Fatalf("seq %d never delivered", i)
		}
		if g, w := canonicalJSON(t, *got[i]), canonicalJSON(t, want[i]); g != w {
			t.Errorf("seq %d (%s) differs:\n  stream: %s\n  batch:  %s", i, want[i].Name, g, w)
		}
		if got[i].ElapsedNs <= 0 {
			t.Errorf("seq %d: elapsed %d, want > 0", i, got[i].ElapsedNs)
		}
	}

	batch, err := svc.DetectBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if g, w := canonicalJSON(t, batch[i]), canonicalJSON(t, want[i]); g != w {
			t.Errorf("batch seq %d differs:\n  got:  %s\n  want: %s", i, g, w)
		}
	}
	// The second pass re-detected identical shapes: the memo must have hits.
	if st := svc.Stats(); st.Memo.Hits == 0 {
		t.Error("no memo hits after re-detecting the suite")
	}
}

// TestServiceOverload pins intake backpressure end to end: a batch larger
// than the queue limit is rejected with ErrOverloaded, already-submitted
// requests are shed, and the service keeps serving afterwards.
func TestServiceOverload(t *testing.T) {
	svc, err := NewService(ServiceOptions{Workers: 2, QueueLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	err = func() error {
		_, err := svc.DetectBatch(context.Background(), workloadRequests(RequestOptions{}))
		return err
	}()
	if !errors.Is(err, ErrBatchTooLarge) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("oversized batch: err = %v, want ErrBatchTooLarge (wrapping ErrOverloaded)", err)
	}
	waitDrained(t, svc)

	res, err := svc.Detect(context.Background(), DetectRequest{
		Name: "dot.c", Source: dotSource,
	})
	if err != nil {
		t.Fatalf("service unusable after overload: %v", err)
	}
	if res.Err != "" || len(res.Findings) != 1 || res.Findings[0].Idiom != "Reduction" {
		t.Fatalf("post-overload result = %+v", res)
	}
}

// TestServiceCancellation pins load shedding through the public API:
// cancelling the request context fails the in-flight batch with context
// errors, the queues drain, and the service keeps serving.
func TestServiceCancellation(t *testing.T) {
	svc, err := NewService(ServiceOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctx, cancel := context.WithCancel(context.Background())
	ch, err := svc.DetectStream(ctx, workloadRequests(RequestOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	delivered := 0
	for res := range ch {
		delivered++
		if res.Err != "" && res.Err != context.Canceled.Error() {
			t.Errorf("seq %d: err = %q, want context.Canceled", res.Seq, res.Err)
		}
	}
	if delivered != len(workloads.All()) {
		t.Fatalf("delivered %d results, want %d (every request must resolve)", delivered, len(workloads.All()))
	}
	waitDrained(t, svc)

	res, err := svc.Detect(context.Background(), DetectRequest{Name: "dot.c", Source: dotSource})
	if err != nil || res.Err != "" {
		t.Fatalf("service unusable after cancellation: %v / %q", err, res.Err)
	}
}

// TestServiceErrorsInBand pins per-request failure reporting: a compile
// error lands in the result's Err field without failing the batch.
func TestServiceErrorsInBand(t *testing.T) {
	svc, err := NewService(ServiceOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	results, err := svc.DetectBatch(context.Background(), []DetectRequest{
		{Name: "good.c", Source: dotSource},
		{Name: "bad.c", Source: "int broken( {"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != "" || len(results[0].Findings) != 1 {
		t.Errorf("good request: %+v", results[0])
	}
	if results[1].Err == "" {
		t.Error("compile error not reported in-band")
	}
}

// TestServiceProgramPath pins the in-process blessed path: Compile binds the
// Program to the service, Detect routes through the shared pipeline, and the
// idiom subset keeps sequential-driver precedence semantics.
func TestServiceProgramPath(t *testing.T) {
	svc, err := NewService(ServiceOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	prog, err := svc.Compile(context.Background(), "dot", dotSource)
	if err != nil {
		t.Fatal(err)
	}
	det, err := prog.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Instances) != 1 || det.Instances[0].Idiom != "Reduction" {
		t.Fatalf("detection = %+v", det)
	}
	if det.Elapsed <= 0 {
		t.Error("Detection.Elapsed not populated")
	}
	none, err := prog.DetectOnly("GEMM")
	if err != nil {
		t.Fatal(err)
	}
	if len(none.Instances) != 0 {
		t.Fatalf("GEMM-only detection found %d instances in a reduction", len(none.Instances))
	}
	if _, err := prog.DetectOnly("Bogus"); err == nil {
		t.Error("unknown idiom name accepted; must be rejected, not answered empty")
	}
	if _, err := svc.Submit(context.Background(), DetectRequest{
		Name: "x.c", Source: dotSource, Idioms: []string{"gemm"},
	}); err == nil {
		t.Error("Submit accepted a misspelled idiom name")
	}
}

func waitDrained(t *testing.T, svc *Service) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := svc.Stats()
		if st.InFlight == 0 && st.SolveActive == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("service did not drain: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
