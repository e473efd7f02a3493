package httpapi_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/idiomatic"
	"repro/internal/workloads"
)

// TestDeadlineHeaderShedsMidSolve extends the PR 4 cancellation pins to
// header-derived deadlines at the HTTP layer: a whole-suite stream under a
// tight X-Deadline-Ms must deliver one line per request — deadline-exceeded
// reported in-band per module, never a torn stream or a partial result —
// free every worker, and never memoize an aborted solve: a second pass
// without a deadline on the same service is byte-identical to the
// sequential reference.
func TestDeadlineHeaderShedsMidSolve(t *testing.T) {
	opts := idiomatic.RequestOptions{Solutions: true}
	want := wantSuite(t, opts)
	ts, svc := newServer(t, idiomatic.ServiceOptions{Workers: 4})
	body := suiteBody(t, opts)

	// Round 1: the whole suite under a deadline tight enough to expire while
	// solves are in flight.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/detect/stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Deadline-Ms", "120")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (deadline errors are in-band, not a torn stream)", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lines := 0
	expired := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		lines++
		var res idiomatic.DetectResult
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("torn stream: line %d is not valid JSON: %v", lines, err)
		}
		if res.Err != "" {
			if !strings.Contains(res.Err, "deadline exceeded") {
				t.Errorf("seq %d: err = %q, want a deadline-exceeded report", res.Seq, res.Err)
			}
			expired++
			continue
		}
		// Raced the deadline and won: the result must be full, not partial.
		if g, w := canonical(t, res), canonical(t, want[res.Seq]); g != w {
			t.Errorf("seq %d: completed result differs from reference (partial solve leaked):\n  got:  %s\n  want: %s",
				res.Seq, g, w)
		}
	}
	resp.Body.Close()
	if lines != len(want) {
		t.Fatalf("stream delivered %d lines, want %d (every request must resolve in-band)", lines, len(want))
	}
	t.Logf("deadline expired on %d/%d modules", expired, lines)

	// Every worker must be free promptly.
	waitDrained(t, svc)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := svc.Stats()
		if st.SolveActive == 0 && st.ReadyQueue == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers still active after deadline shedding: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Round 2, same service, no deadline: aborted solves must not have been
	// memoized, so the suite reproduces the reference byte-for-byte (and with
	// the reference step counts — a poisoned cache entry would change both).
	resp2, err := http.Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("round 2 status = %d, want 200", resp2.StatusCode)
	}
	var round2 struct {
		Results []idiomatic.DetectResult `json:"results"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&round2); err != nil {
		t.Fatal(err)
	}
	if len(round2.Results) != len(want) {
		t.Fatalf("round 2 returned %d results, want %d", len(round2.Results), len(want))
	}
	for i := range want {
		if round2.Results[i].Err != "" {
			t.Fatalf("round 2 seq %d failed: %s", i, round2.Results[i].Err)
		}
		if g, w := canonical(t, round2.Results[i]), canonical(t, want[i]); g != w {
			t.Errorf("round 2 seq %d differs (memo poisoned by aborted solve):\n  got:  %s\n  want: %s", i, g, w)
		}
	}
}

// TestDeadlineBodyField pins the wire-field route to the same plumbing: a
// per-request deadline_ms in the body expires in-band while an undeadlined
// request in the same batch completes. The doomed request is a module whose
// compile+solve outlasts 1ms on any machine — the deadline is only observed
// at stage boundaries and solver polls, so a module cheap enough to finish
// between polls could race past it on an idle service.
func TestDeadlineBodyField(t *testing.T) {
	ts, _ := newServer(t, idiomatic.ServiceOptions{Workers: 2})
	var doomed string
	for _, w := range workloads.All() {
		if w.Name == "lbm" {
			doomed = w.Source
		}
	}
	if doomed == "" {
		t.Fatal("no lbm workload in the suite")
	}
	body, err := json.Marshal([]idiomatic.DetectRequest{
		{Name: "quick.c", Source: "double s(double* x,int n){double a=0.0;for(int i=0;i<n;i++){a=a+x[i];}return a;}"},
		{Name: "doomed.c", Source: doomed, DeadlineMs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Results []idiomatic.DetectResult `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(out.Results))
	}
	if out.Results[0].Err != "" || len(out.Results[0].Findings) == 0 {
		t.Fatalf("undeadlined request = %+v, want findings", out.Results[0])
	}
	if !strings.Contains(out.Results[1].Err, "deadline exceeded") {
		t.Fatalf("deadlined request err = %q, want deadline exceeded in-band", out.Results[1].Err)
	}
}
