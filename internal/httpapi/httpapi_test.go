package httpapi_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/idiomatic"
	"repro/internal/detect"
	"repro/internal/httpapi"
	"repro/internal/ir"
	"repro/internal/leakcheck"
	"repro/internal/workloads"
)

func newServer(t *testing.T, opts idiomatic.ServiceOptions) (*httptest.Server, *idiomatic.Service) {
	t.Helper()
	// Registered before the Close cleanup below, so the leak assertion runs
	// after the server and service have shut down: a worker the Close path
	// forgets to reap fails the test that spawned it.
	leakcheck.Register(t)
	svc, err := idiomatic.NewService(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.New(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts, svc
}

// canonical renders a wire result with the run-dependent fields (wall time,
// memo counters) zeroed; everything else the protocol guarantees to be
// deterministic, so tests compare these bytes directly.
func canonical(t *testing.T, r idiomatic.DetectResult) string {
	t.Helper()
	r.ElapsedNs = 0
	r.Memo = idiomatic.MemoSnapshot{}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// wantSuite builds the reference wire results for the full 21-workload suite
// straight from the batch engine (detect.Modules), encoded by the same
// WireResult conversion the server uses.
func wantSuite(t *testing.T, opts idiomatic.RequestOptions) []idiomatic.DetectResult {
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
	out := make([]idiomatic.DetectResult, len(ress))
	for i, res := range ress {
		out[i] = idiomatic.WireResult(i, ws[i].Name, res, opts)
	}
	return out
}

func suiteBody(t *testing.T, opts idiomatic.RequestOptions) []byte {
	t.Helper()
	var reqs []idiomatic.DetectRequest
	for _, w := range workloads.All() {
		reqs = append(reqs, idiomatic.DetectRequest{Name: w.Name, Source: w.Source, Opts: opts})
	}
	body, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestStreamByteIdenticalToModules is the acceptance criterion: the NDJSON
// stream for the 21-workload suite, reassembled by sequence number, is
// byte-identical (canonical encoding, full solutions) to detect.Modules
// order — and the single-shot endpoint agrees line for line.
func TestStreamByteIdenticalToModules(t *testing.T) {
	opts := idiomatic.RequestOptions{Solutions: true}
	want := wantSuite(t, opts)
	ts, _ := newServer(t, idiomatic.ServiceOptions{Workers: 4})
	body := suiteBody(t, opts)

	resp, err := http.Post(ts.URL+"/v1/detect/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}

	got := make([]*idiomatic.DetectResult, len(want))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lines := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		lines++
		var res idiomatic.DetectResult
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if res.Err != "" {
			t.Fatalf("seq %d (%s): %s", res.Seq, res.Name, res.Err)
		}
		if res.Seq < 0 || res.Seq >= len(want) || got[res.Seq] != nil {
			t.Fatalf("bad or duplicate seq %d", res.Seq)
		}
		got[res.Seq] = &res
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != len(want) {
		t.Fatalf("stream delivered %d lines, want %d", lines, len(want))
	}
	for i := range want {
		if g, w := canonical(t, *got[i]), canonical(t, want[i]); g != w {
			t.Errorf("seq %d (%s) differs from detect.Modules:\n  stream: %s\n  batch:  %s",
				i, want[i].Name, g, w)
		}
	}

	// Single-shot endpoint: same batch, submit-order results, same bytes.
	resp2, err := http.Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("single-shot status = %d, want 200", resp2.StatusCode)
	}
	var single struct {
		Results []idiomatic.DetectResult `json:"results"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&single); err != nil {
		t.Fatal(err)
	}
	if len(single.Results) != len(want) {
		t.Fatalf("single-shot returned %d results, want %d", len(single.Results), len(want))
	}
	for i := range want {
		if g, w := canonical(t, single.Results[i]), canonical(t, want[i]); g != w {
			t.Errorf("single-shot seq %d differs:\n  got:  %s\n  want: %s", i, g, w)
		}
	}
}

// canonicalMatch renders a match result with the run-dependent fields
// zeroed, like canonical.
func canonicalMatch(t *testing.T, r idiomatic.MatchResult) string {
	t.Helper()
	r.ElapsedNs = 0
	r.Memo = idiomatic.MemoSnapshot{}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// wantMatchSuite builds the reference match results for the 21-workload
// suite from the blessed in-process pieces: detection legs straight from the
// batch engine (wantSuite), transformation plans from Service.Compile →
// DetectProgram → Plan — the library path the HTTP pipeline must mirror
// byte for byte.
func wantMatchSuite(t *testing.T, opts idiomatic.RequestOptions) []idiomatic.MatchResult {
	t.Helper()
	detWant := wantSuite(t, opts)
	svc, err := idiomatic.NewService(idiomatic.ServiceOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	out := make([]idiomatic.MatchResult, len(detWant))
	for i, w := range workloads.All() {
		prog, err := svc.Compile(ctx, w.Name, w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		det, err := svc.DetectProgram(ctx, prog)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		plans, err := svc.Plan(ctx, prog, det, "")
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		out[i] = idiomatic.MatchResult{DetectResult: detWant[i], Plans: plans}
	}
	return out
}

// TestMatchStreamByteIdenticalToInProcess extends the byte-identity
// acceptance criterion to the full pipeline: the /v1/match/stream NDJSON for
// all 21 workloads, reassembled by sequence number, is byte-identical to the
// in-process DetectProgram + Plan (transform.Apply) results — detection
// findings and wire-encoded transformation plans alike — and the single-shot
// /v1/match endpoint agrees line for line.
func TestMatchStreamByteIdenticalToInProcess(t *testing.T) {
	opts := idiomatic.RequestOptions{Solutions: true}
	want := wantMatchSuite(t, opts)
	ts, _ := newServer(t, idiomatic.ServiceOptions{Workers: 4})
	var reqs []idiomatic.MatchRequest
	for _, w := range workloads.All() {
		reqs = append(reqs, idiomatic.MatchRequest{Name: w.Name, Source: w.Source, Opts: opts})
	}
	body, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/match/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	got := make([]*idiomatic.MatchResult, len(want))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lines := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		lines++
		var res idiomatic.MatchResult
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if res.Err != "" {
			t.Fatalf("seq %d (%s): %s", res.Seq, res.Name, res.Err)
		}
		if res.Seq < 0 || res.Seq >= len(want) || got[res.Seq] != nil {
			t.Fatalf("bad or duplicate seq %d", res.Seq)
		}
		got[res.Seq] = &res
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != len(want) {
		t.Fatalf("stream delivered %d lines, want %d", lines, len(want))
	}
	for i := range want {
		if g, w := canonicalMatch(t, *got[i]), canonicalMatch(t, want[i]); g != w {
			t.Errorf("seq %d (%s) differs from in-process match:\n  stream:     %s\n  in-process: %s",
				i, want[i].Name, g, w)
		}
	}

	// Single-shot endpoint: same batch, submit-order results, same bytes.
	resp2, err := http.Post(ts.URL+"/v1/match", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("single-shot status = %d, want 200", resp2.StatusCode)
	}
	var single struct {
		Results []idiomatic.MatchResult `json:"results"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&single); err != nil {
		t.Fatal(err)
	}
	if len(single.Results) != len(want) {
		t.Fatalf("single-shot returned %d results, want %d", len(single.Results), len(want))
	}
	for i := range want {
		if g, w := canonicalMatch(t, single.Results[i]), canonicalMatch(t, want[i]); g != w {
			t.Errorf("single-shot seq %d differs:\n  got:  %s\n  want: %s", i, g, w)
		}
	}
}

// TestSingleObjectBody pins the curl-friendly form: one bare DetectRequest
// object (not an array) works on both endpoints.
func TestSingleObjectBody(t *testing.T) {
	ts, _ := newServer(t, idiomatic.ServiceOptions{Workers: 2})
	w := workloads.ByName("CG")
	body, _ := json.Marshal(idiomatic.DetectRequest{Name: w.Name, Source: w.Source})
	for _, path := range []string{"/v1/detect", "/v1/detect/stream"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, data)
		}
		if !bytes.Contains(data, []byte(`"idiom"`)) {
			t.Errorf("%s: no findings in %s", path, data)
		}
	}
}

// TestOverloadReturns429 pins load shedding at the front door: a batch
// exceeding the intake bound is rejected with 429 on both endpoints — with
// no Retry-After, because an over-limit batch can never fit and must be
// split, not retried — and the server keeps serving afterwards.
func TestOverloadReturns429(t *testing.T) {
	ts, svc := newServer(t, idiomatic.ServiceOptions{Workers: 2, QueueLimit: 2})
	body := suiteBody(t, idiomatic.RequestOptions{})

	for _, path := range []string{"/v1/detect", "/v1/detect/stream"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s: status = %d, want 429 (body %s)", path, resp.StatusCode, data)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			t.Errorf("%s: Retry-After %q on an unservable batch; retrying can never help", path, ra)
		}
		var e idiomatic.ErrorEnvelope
		if err := json.Unmarshal(data, &e); err != nil || e.Error.Code != idiomatic.CodeBatchTooLarge ||
			!strings.Contains(e.Error.Message, "split the batch") || e.Error.RetryAfterMs != 0 {
			t.Errorf("%s: error body = %s", path, data)
		}
		waitDrained(t, svc)
	}

	// Within-bound traffic still serves.
	w := workloads.ByName("EP")
	small, _ := json.Marshal(idiomatic.DetectRequest{Name: w.Name, Source: w.Source})
	resp, err := http.Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-overload status = %d, want 200", resp.StatusCode)
	}
}

// TestCancelMidStreamFreesWorkers pins client-disconnect shedding: a
// cancelled streaming request stops mid-delivery, the service's queues and
// solver pool drain, and the next request is served normally.
func TestCancelMidStreamFreesWorkers(t *testing.T) {
	ts, svc := newServer(t, idiomatic.ServiceOptions{Workers: 2})
	body := suiteBody(t, idiomatic.RequestOptions{})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/detect/stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	// Read one result line, then hang up mid-stream.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		cancel()
		t.Fatal("no first line before cancel")
	}
	cancel()
	resp.Body.Close()

	waitDrained(t, svc)

	// The pool is free again: a fresh request completes correctly.
	w := workloads.ByName("CG")
	small, _ := json.Marshal(idiomatic.DetectRequest{Name: w.Name, Source: w.Source})
	resp2, err := http.Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var out struct {
		Results []idiomatic.DetectResult `json:"results"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || out.Results[0].Err != "" || len(out.Results[0].Findings) == 0 {
		t.Fatalf("post-cancel detection broken: %+v", out.Results)
	}
}

// TestIntrospectionEndpoints covers /healthz, /statsz and /v1/idioms.
func TestIntrospectionEndpoints(t *testing.T) {
	// A two-entry memo forces LRU evictions on the very first request, which
	// must show up in /statsz.
	ts, _ := newServer(t, idiomatic.ServiceOptions{
		Workers: 2, QueueLimit: 7, MemoMaxEntries: 2,
	})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health["ok"] != true {
		t.Fatalf("healthz = %d %v", resp.StatusCode, health)
	}

	// Serve one request so the stats counters move.
	w := workloads.ByName("EP")
	body, _ := json.Marshal(idiomatic.DetectRequest{Name: w.Name, Source: w.Source})
	if resp, err := http.Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(body)); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var stats idiomatic.StatsResponse
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.QueueLimit != 7 || stats.SolveWorkers != 2 || stats.Submitted < 1 {
		t.Errorf("statsz = %+v", stats)
	}
	if stats.Memo.Misses == 0 {
		t.Errorf("statsz memo counters never moved: %+v", stats.Memo)
	}
	if stats.Memo.Evictions == 0 || stats.Memo.MaxEntries != 2 {
		t.Errorf("statsz memo eviction state invisible: %+v", stats.Memo)
	}
	if stats.Schema != idiomatic.StatsSchemaVersion {
		t.Errorf("statsz schema = %d, want %d", stats.Schema, idiomatic.StatsSchemaVersion)
	}
	// The wire names are part of the versioned surface: dashboards key on
	// them, so schema v7's removals are pinned here, not just the struct
	// fields. The prescreen gauges and the memo cost-table size are gone.
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"prune_mode", "prune_skipped", "prune_reordered", "prescreen_ns_total",
	} {
		if _, ok := fields[key]; ok {
			t.Errorf("statsz still has the removed %q field", key)
		}
	}
	var memoFields struct {
		Memo map[string]json.RawMessage `json:"memo"`
	}
	if err := json.Unmarshal(raw, &memoFields); err != nil {
		t.Fatal(err)
	}
	if _, ok := memoFields.Memo["cost_entries"]; ok {
		t.Errorf("statsz memo snapshot still has the removed \"cost_entries\" field")
	}

	resp, err = http.Get(ts.URL + "/v1/idioms")
	if err != nil {
		t.Fatal(err)
	}
	var roster struct {
		Idioms       []idiomatic.IdiomInfo `json:"idioms"`
		LibraryLines int                   `json:"library_lines"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&roster); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	names := map[string]idiomatic.IdiomInfo{}
	for _, ii := range roster.Idioms {
		names[ii.Name] = ii
	}
	if !names["GEMM"].Default || !names["Map"].Extension || names["Map"].Default {
		t.Errorf("roster misclassified: %+v", roster.Idioms)
	}
	if roster.LibraryLines == 0 {
		t.Error("library_lines missing")
	}
}

// TestBadRequests pins 400 on malformed bodies — including an unknown idiom
// name, which must never be answered with an empty 200.
func TestBadRequests(t *testing.T) {
	ts, _ := newServer(t, idiomatic.ServiceOptions{Workers: 1})
	for _, body := range []string{
		"", "not json", "[]", `{"name":"x"}`,
		`{"name":"x","source":"int f() { return 0; }","idioms":["gemm"]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/detect", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400 (%s)", body, resp.StatusCode, data)
		}
	}
}

// TestPackRegistrationOverHTTP pins the acceptance criterion's wire flow:
// POST /v1/idioms installs a pack on the live server — no rebuild, no
// restart — and a subsequent POST /v1/match with that pack detects,
// transforms and ranks backends for an idiom the built-in roster does not
// know. Unknown pack and unknown target on /v1/match are 400, never an
// empty 200.
func TestPackRegistrationOverHTTP(t *testing.T) {
	ts, _ := newServer(t, idiomatic.ServiceOptions{Workers: 2})
	source := `
double dot(double* x, double* y, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s = s + x[i]*y[i]; }
    return s;
}`

	// Pre-registration: unknown pack is 400 on both match endpoints.
	for _, path := range []string{"/v1/match", "/v1/match/stream"} {
		body, _ := json.Marshal(idiomatic.MatchRequest{Source: source, Pack: "blas1"})
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), `unknown pack`) {
			t.Fatalf("%s unknown pack: status %d body %s", path, resp.StatusCode, data)
		}
	}

	// Invalid registrations are 400 with the CompilePack error text.
	bad, _ := json.Marshal(map[string]any{
		"pack": "blas1", "source": idiomatic.LibrarySource(),
		"idioms": []idiomatic.TopSpec{{Top: "NoSuchConstraint"}},
	})
	resp, err := http.Post(ts.URL+"/v1/idioms", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "unknown constraint") {
		t.Fatalf("bad registration: status %d body %s", resp.StatusCode, data)
	}

	// Register, then match with the pack.
	reg, _ := json.Marshal(map[string]any{
		"pack": "blas1", "source": idiomatic.LibrarySource(),
		"idioms": []idiomatic.TopSpec{{
			Name: "Dot", Top: "Reduction", Class: "Scalar Reduction",
			Scheme: "reduction", Kind: "reduction",
		}},
	})
	resp, err = http.Post(ts.URL+"/v1/idioms", "application/json", bytes.NewReader(reg))
	if err != nil {
		t.Fatal(err)
	}
	var regOut struct {
		Pack idiomatic.PackInfo `json:"pack"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&regOut); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || regOut.Pack.Version != 1 || len(regOut.Pack.Idioms) != 1 {
		t.Fatalf("registration: status %d pack %+v", resp.StatusCode, regOut.Pack)
	}

	body, _ := json.Marshal(idiomatic.MatchRequest{Name: "dot.c", Source: source, Pack: "blas1"})
	resp, err = http.Post(ts.URL+"/v1/match", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Results []idiomatic.MatchResult `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(out.Results) != 1 {
		t.Fatalf("results = %+v", out.Results)
	}
	res := out.Results[0]
	if res.Err != "" || len(res.Findings) != 1 || res.Findings[0].Idiom != "Dot" ||
		res.Pack != "blas1" || res.PackVersion != 1 {
		t.Fatalf("match result = %+v", res)
	}
	plan := res.Plans[0]
	if plan.Err != "" || plan.Backend != "lift" || plan.Device != "GPU" ||
		!strings.HasPrefix(plan.Extern, "lift.reduction#") || len(plan.Offload) != 3 {
		t.Fatalf("plan = %+v", plan)
	}

	// Unknown target is 400.
	body, _ = json.Marshal(idiomatic.MatchRequest{Source: source, Target: "FPGA"})
	resp, err = http.Post(ts.URL+"/v1/match", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "unknown target device") {
		t.Fatalf("unknown target: status %d body %s", resp.StatusCode, data)
	}

	// Introspection: the pack shows up in the roster payload, per-pack query
	// works, unknown pack query is 404.
	resp, err = http.Get(ts.URL + "/v1/idioms")
	if err != nil {
		t.Fatal(err)
	}
	var roster struct {
		Packs []idiomatic.PackInfo `json:"packs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&roster); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(roster.Packs) != 1 || roster.Packs[0].Name != "blas1" {
		t.Fatalf("roster packs = %+v", roster.Packs)
	}
	resp, err = http.Get(ts.URL + "/v1/idioms?pack=blas1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pack query status = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/idioms?pack=nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown pack query status = %d, want 404", resp.StatusCode)
	}
}

// TestBackendsEndpoint pins GET /v1/backends: the device models and the
// Table 3 API profiles backend selection ranks over.
func TestBackendsEndpoint(t *testing.T) {
	ts, _ := newServer(t, idiomatic.ServiceOptions{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Devices  []idiomatic.DeviceInfo  `json:"devices"`
		Backends []idiomatic.BackendInfo `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(out.Devices) != 3 {
		t.Fatalf("status %d devices %+v", resp.StatusCode, out.Devices)
	}
	byName := map[string]idiomatic.BackendInfo{}
	for _, b := range out.Backends {
		byName[b.Name] = b
	}
	if eff := byName["cublas"].Kinds["GPU"]["gemm"]; eff != 0.90 {
		t.Errorf("cublas GPU gemm efficiency = %v, want 0.90", eff)
	}
	if !byName["halide"].NeedsStraightLineKernel {
		t.Error("halide straight-line restriction missing")
	}
}

func waitDrained(t *testing.T, svc *idiomatic.Service) {
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
