package fleet_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/idiomatic"
	"repro/internal/fleet"
	"repro/internal/httpapi"
)

// testSources are small distinct modules; enough of them that a 2-replica
// ring almost surely splits the set (and the tests assert it did).
func testSources() []idiomatic.DetectRequest {
	reqs := []idiomatic.DetectRequest{
		{Name: "dot.c", Source: "double dot(double* x, double* y, int n) { double s = 0.0; for (int i = 0; i < n; i++) { s = s + x[i]*y[i]; } return s; }"},
		{Name: "sum.c", Source: "double sum(double* x, int n) { double a = 0.0; for (int i = 0; i < n; i++) { a = a + x[i]; } return a; }"},
		{Name: "scale.c", Source: "void scale(double* x, double a, int n) { for (int i = 0; i < n; i++) { x[i] = a * x[i]; } }"},
	}
	for i := 0; i < 5; i++ {
		src := fmt.Sprintf("int f%d(int a, int b) { int r = a * b;", i)
		for j := 0; j <= i; j++ {
			src += " r = r + a;"
		}
		src += " return r; }"
		reqs = append(reqs, idiomatic.DetectRequest{Name: fmt.Sprintf("f%d.c", i), Source: src})
	}
	return reqs
}

type backend struct {
	svc *idiomatic.Service
	ts  *httptest.Server
}

func newBackend(t *testing.T, keys *httpapi.Keyring) *backend {
	t.Helper()
	svc, err := idiomatic.NewService(idiomatic.ServiceOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.NewServer(svc, httpapi.Options{Keys: keys}))
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return &backend{svc: svc, ts: ts}
}

func newFleet(t *testing.T, n int, keys *httpapi.Keyring) ([]*backend, *fleet.Front, *httptest.Server) {
	t.Helper()
	backs := make([]*backend, n)
	urls := make([]string, n)
	for i := range backs {
		backs[i] = newBackend(t, keys)
		urls[i] = backs[i].ts.URL
	}
	front, err := fleet.New(fleet.Options{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	front.CheckNow()
	fs := httptest.NewServer(front.Handler())
	t.Cleanup(fs.Close)
	return backs, front, fs
}

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

func postBatch(t *testing.T, url string, reqs []idiomatic.DetectRequest) (int, []idiomatic.DetectResult) {
	t.Helper()
	body, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/detect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var out struct {
		Results []idiomatic.DetectResult `json:"results"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal batch response: %v (body %s)", err, data)
	}
	return resp.StatusCode, out.Results
}

// TestRouteDeterminismAndSpread pins the ring: the same source routes to the
// same replica across independently built fronts (the ring is a pure function
// of the replica list), and the test corpus actually spans both replicas.
func TestRouteDeterminismAndSpread(t *testing.T) {
	urls := []string{"http://replica-a:1", "http://replica-b:2"}
	f1, err := fleet.New(fleet.Options{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	defer f1.Close()
	f2, err := fleet.New(fleet.Options{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()

	hit := map[string]int{}
	for _, req := range testSources() {
		r1, r2 := f1.Route(req.Source), f2.Route(req.Source)
		if r1 != r2 {
			t.Fatalf("%s: route differs across identically configured fronts (%s vs %s)", req.Name, r1, r2)
		}
		hit[r1]++
	}
	if len(hit) != 2 {
		t.Fatalf("all %d sources routed to one replica: %v (corpus must span the ring)", len(testSources()), hit)
	}
	// Renaming a module must not move it: routing keys off source only.
	src := testSources()[0].Source
	if f1.Route(src) != f1.Route(src) {
		t.Fatal("route not a function of source")
	}
}

// TestBatchThroughFrontMatchesSingleReplica is the fleet's correctness
// criterion: a batch split across two replicas and merged back is
// result-identical (canonical wire form, global seq order) to the same batch
// against one replica.
func TestBatchThroughFrontMatchesSingleReplica(t *testing.T) {
	reqs := testSources()
	mono := newBackend(t, nil)
	status, want := postBatch(t, mono.ts.URL, reqs)
	if status != http.StatusOK {
		t.Fatalf("mono batch status %d", status)
	}

	backs, front, fs := newFleet(t, 2, nil)
	// The corpus must actually shard, or the test proves nothing.
	owners := map[string]bool{}
	for _, r := range reqs {
		owners[front.Route(r.Source)] = true
	}
	if len(owners) != 2 {
		t.Fatalf("corpus landed on %d replica(s); want both", len(owners))
	}
	status, got := postBatch(t, fs.URL, reqs)
	if status != http.StatusOK {
		t.Fatalf("fleet batch status %d", status)
	}
	if len(got) != len(want) {
		t.Fatalf("fleet returned %d results, mono %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != i {
			t.Errorf("result %d carries seq %d; merge must restore global submit order", i, got[i].Seq)
		}
		if canonical(t, got[i]) != canonical(t, want[i]) {
			t.Errorf("%s: fleet result differs from single-replica result", want[i].Name)
		}
	}
	// Both replicas actually served traffic.
	for i, b := range backs {
		if b.svc.Stats().Completed == 0 {
			t.Errorf("replica %d completed nothing; routing sent it no work", i)
		}
	}
}

// TestStreamThroughFrontGlobalSeq pins the NDJSON contract across the fleet
// boundary: lines arrive in completion order, but reassembling by seq
// reproduces the batch exactly.
func TestStreamThroughFrontGlobalSeq(t *testing.T) {
	reqs := testSources()
	mono := newBackend(t, nil)
	_, want := postBatch(t, mono.ts.URL, reqs)

	_, _, fs := newFleet(t, 2, nil)
	body, _ := json.Marshal(reqs)
	resp, err := http.Post(fs.URL+"/v1/detect/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/x-ndjson") {
		t.Errorf("stream Content-Type = %q", ct)
	}
	got := make([]idiomatic.DetectResult, len(reqs))
	seen := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		var r idiomatic.DetectResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON line: %v (%s)", err, sc.Bytes())
		}
		if r.Seq < 0 || r.Seq >= len(reqs) {
			t.Fatalf("line carries out-of-range seq %d", r.Seq)
		}
		got[r.Seq] = r
		seen++
	}
	if seen != len(reqs) {
		t.Fatalf("stream delivered %d lines; want %d", seen, len(reqs))
	}
	for i := range want {
		if canonical(t, got[i]) != canonical(t, want[i]) {
			t.Errorf("%s: streamed fleet result differs from single-replica batch", want[i].Name)
		}
	}
}

// TestFailoverReroutesToSurvivor kills one replica and asserts the batch
// still succeeds — the dead shard's modules fail over along the ring — and
// that with zero replicas the failure is reported in-band per module, never
// as a torn response.
func TestFailoverReroutesToSurvivor(t *testing.T) {
	reqs := testSources()
	backs, front, fs := newFleet(t, 2, nil)

	backs[0].ts.Close() // kill replica 0 (Close is idempotent for the cleanup)
	front.CheckNow()
	status, got := postBatch(t, fs.URL, reqs)
	if status != http.StatusOK {
		t.Fatalf("batch with one dead replica: status %d", status)
	}
	mono := newBackend(t, nil)
	_, want := postBatch(t, mono.ts.URL, reqs)
	for i := range want {
		if got[i].Err != "" {
			t.Errorf("%s: in-band error despite a live survivor: %s", want[i].Name, got[i].Err)
		} else if canonical(t, got[i]) != canonical(t, want[i]) {
			t.Errorf("%s: failover result differs", want[i].Name)
		}
	}

	backs[1].ts.Close()
	front.CheckNow()
	status, got = postBatch(t, fs.URL, reqs)
	if status != http.StatusOK {
		t.Fatalf("batch with zero replicas: status %d; fleet exhaustion is in-band", status)
	}
	for i, r := range got {
		if r.Err == "" || !strings.Contains(r.Err, "no replica reachable") {
			t.Errorf("result %d: Err = %q; want an in-band no-replica report", i, r.Err)
		}
		if r.Name != reqs[i].Name {
			t.Errorf("result %d: name %q; in-band errors must keep the request's name", i, r.Name)
		}
	}

	// Health surface agrees: zero live replicas is a 503.
	resp, err := http.Get(fs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/healthz with dead fleet = %d; want 503", resp.StatusCode)
	}
}

// TestPackBroadcast pins pack semantics through the front door: one POST
// /v1/idioms lands the pack on every replica, so any module routed anywhere
// can use it.
func TestPackBroadcast(t *testing.T) {
	backs, _, fs := newFleet(t, 2, nil)
	reg, _ := json.Marshal(map[string]any{
		"pack":   "fleetpack",
		"source": idiomatic.LibrarySource(),
		"idioms": []map[string]any{{"name": "Dot", "top": "Reduction", "scheme": "reduction", "kind": "reduction"}},
	})
	resp, err := http.Post(fs.URL+"/v1/idioms", "application/json", bytes.NewReader(reg))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pack broadcast status %d", resp.StatusCode)
	}
	for i, b := range backs {
		if _, ok := b.svc.PackByName("fleetpack"); !ok {
			t.Errorf("replica %d missing the broadcast pack", i)
		}
	}
	// And a routed request using the pack works wherever it lands.
	status, got := postBatch(t, fs.URL, []idiomatic.DetectRequest{
		{Name: "dot.c", Source: testSources()[0].Source, Pack: "fleetpack"},
	})
	if status != http.StatusOK || len(got) != 1 || got[0].Err != "" {
		t.Fatalf("detect via broadcast pack: status %d results %+v", status, got)
	}
}

// TestAggregatedSurfaces covers /statsz (schema, per-replica rows, sums) and
// /v1/clients (per-tenant sums, auth relayed) through the front.
func TestAggregatedSurfaces(t *testing.T) {
	kr, err := httpapi.ParseKeyring(strings.NewReader("k-user user 1\nk-admin ops 1 admin\n"))
	if err != nil {
		t.Fatal(err)
	}
	_, _, fs := newFleet(t, 2, kr)

	// Push a couple of authenticated modules through the router.
	body, _ := json.Marshal(testSources()[:4])
	req, _ := http.NewRequest(http.MethodPost, fs.URL+"/v1/detect", bytes.NewReader(body))
	req.Header.Set("X-API-Key", "k-user")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated batch via front: %d", resp.StatusCode)
	}

	// /statsz: open endpoint, aggregated shape.
	resp, err = http.Get(fs.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var stats fleet.FleetStatsResponse
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatalf("statsz: %v", err)
	}
	if stats.Schema != fleet.FleetStatsSchemaVersion || stats.Replicas != 2 || stats.Live != 2 {
		t.Fatalf("statsz header = %+v", stats)
	}
	if len(stats.Rows) != 2 || stats.Rows[0].Stats == nil || stats.Rows[1].Stats == nil {
		t.Fatalf("statsz rows incomplete: %+v", stats.Rows)
	}
	if sum := stats.Rows[0].Stats.Completed + stats.Rows[1].Stats.Completed; stats.Sums.Completed != sum || sum == 0 {
		t.Errorf("fleet_sums.completed = %d; rows sum to %d", stats.Sums.Completed, sum)
	}

	// /v1/clients without a key relays the replicas' 401 envelope.
	resp, err = http.Get(fs.URL + "/v1/clients")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var env idiomatic.ErrorEnvelope
	if resp.StatusCode != http.StatusUnauthorized || json.Unmarshal(data, &env) != nil ||
		env.Error.Code != idiomatic.CodeUnauthenticated {
		t.Fatalf("anonymous /v1/clients via front: %d %s", resp.StatusCode, data)
	}

	// With the admin key: per-tenant rows summed across replicas.
	req, _ = http.NewRequest(http.MethodGet, fs.URL+"/v1/clients", nil)
	req.Header.Set("X-API-Key", "k-admin")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var clients struct {
		Clients []struct {
			Name   string `json:"name"`
			Served int64  `json:"served"`
		} `json:"clients"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &clients) != nil {
		t.Fatalf("admin /v1/clients via front: %d %s", resp.StatusCode, data)
	}
	names := make([]string, 0, len(clients.Clients))
	var userServed int64
	for _, c := range clients.Clients {
		names = append(names, c.Name)
		if c.Name == "user" {
			userServed = c.Served
		}
	}
	sort.Strings(names)
	if got := strings.Join(names, ","); got != "ops,user" {
		t.Fatalf("aggregated tenants = %s; want ops,user", got)
	}
	if userServed != 4 {
		t.Errorf("user served = %d across the fleet; want the 4 batch modules", userServed)
	}
}

// replicaFaults are the ways a replica's NDJSON reply can misbehave: it
// repeats a seq, carries an out-of-range one, breaks off mid-stream or ends
// cleanly one line short. In each, the replica delivers item 0 first (with
// SolverSteps 1) and never delivers item 1.
var replicaFaults = []string{"repeated", "out-of-range", "broken", "short"}

// faultyFront serves a front over one fake replica that answers every
// forwarded group with the given fault, and returns the front's URL.
func faultyFront(t *testing.T, fault, name string) string {
	t.Helper()
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			return
		}
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		enc.Encode(idiomatic.DetectResult{Seq: 0, Name: name, SolverSteps: 1})
		w.(http.Flusher).Flush()
		switch fault {
		case "repeated":
			enc.Encode(idiomatic.DetectResult{Seq: 0, Name: name, SolverSteps: 2})
		case "out-of-range":
			enc.Encode(idiomatic.DetectResult{Seq: 7, Name: name, SolverSteps: 2})
		case "broken":
			panic(http.ErrAbortHandler) // drop the connection mid-stream
		}
	}))
	t.Cleanup(replica.Close)
	front, err := fleet.New(fleet.Options{Replicas: []string{replica.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	front.CheckNow()
	fs := httptest.NewServer(front.Handler())
	t.Cleanup(fs.Close)
	return fs.URL
}

// TestStreamOneLinePerRequest pins the front's NDJSON contract against a
// misbehaving replica: whatever the fault, the client still gets exactly one
// line per request seq — the delivered result once, and an in-band error for
// the missing one.
func TestStreamOneLinePerRequest(t *testing.T) {
	reqs := testSources()[:2]
	for _, fault := range replicaFaults {
		t.Run(fault, func(t *testing.T) {
			url := faultyFront(t, fault, reqs[0].Name)
			body, _ := json.Marshal(reqs)
			resp, err := http.Post(url+"/v1/detect/stream", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			lines := make([][]idiomatic.DetectResult, len(reqs))
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				var r idiomatic.DetectResult
				if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
					t.Fatalf("bad NDJSON line: %v (%s)", err, sc.Bytes())
				}
				if r.Seq < 0 || r.Seq >= len(reqs) {
					t.Fatalf("line carries out-of-range seq %d", r.Seq)
				}
				lines[r.Seq] = append(lines[r.Seq], r)
			}
			for seq, ls := range lines {
				if len(ls) != 1 {
					t.Fatalf("seq %d: %d lines, want exactly 1: %+v", seq, len(ls), ls)
				}
			}
			if lines[0][0].Err != "" {
				t.Errorf("seq 0: delivered result replaced by error %q", lines[0][0].Err)
			}
			if lines[1][0].Err == "" || lines[1][0].Name != reqs[1].Name {
				t.Errorf("seq 1: got %+v, want an in-band error naming %s", lines[1][0], reqs[1].Name)
			}
		})
	}
}

// TestBatchOneResultPerRequest pins the single-shot merge against a
// misbehaving replica: whatever the fault in the replica stream a batch group
// is forwarded to, the client gets exactly one non-null result per global
// seq — the first delivered result for item 0, and an in-band error naming
// item 1's module for the result the replica never sent.
func TestBatchOneResultPerRequest(t *testing.T) {
	reqs := testSources()[:2]
	for _, fault := range replicaFaults {
		t.Run(fault, func(t *testing.T) {
			url := faultyFront(t, fault, reqs[0].Name)
			body, _ := json.Marshal(reqs)
			resp, err := http.Post(url+"/v1/detect", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			var out struct {
				Results []*idiomatic.DetectResult `json:"results"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if len(out.Results) != len(reqs) {
				t.Fatalf("%d results, want %d", len(out.Results), len(reqs))
			}
			for seq, r := range out.Results {
				if r == nil {
					t.Fatalf("seq %d: null result", seq)
				}
				if r.Seq != seq {
					t.Errorf("slot %d carries seq %d", seq, r.Seq)
				}
			}
			if r := out.Results[0]; r.Err != "" || r.SolverSteps != 1 {
				t.Errorf("seq 0: got %+v, want the first delivered result kept", r)
			}
			if r := out.Results[1]; r.Err == "" || r.Name != reqs[1].Name {
				t.Errorf("seq 1: got %+v, want an in-band error naming %s", r, reqs[1].Name)
			}
		})
	}
}

// TestOversizeBodyMatchesReplica pins the front's body bound to the
// replicas': a body over the 16 MiB limit gets the same status and a
// byte-identical error envelope whether it is posted to the front or
// straight to a replica, on the routed and the broadcast endpoints alike.
func TestOversizeBodyMatchesReplica(t *testing.T) {
	backs, _, fs := newFleet(t, 1, nil)
	body := bytes.Repeat([]byte(" "), 16<<20+1)
	post := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}
	for _, path := range []string{"/v1/detect", "/v1/match/stream", "/v1/idioms"} {
		wantStatus, want := post(backs[0].ts.URL + path)
		gotStatus, got := post(fs.URL + path)
		if wantStatus != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: replica answered %d to an oversize body: %s", path, wantStatus, want)
		}
		if gotStatus != wantStatus || got != want {
			t.Errorf("%s: front answered %d %q; replica %d %q", path, gotStatus, got, wantStatus, want)
		}
	}
}

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

// TestMatchThroughFrontMatchesSingleReplica is the match endpoints' fleet
// criterion: with a pack broadcast through the front, /v1/match and
// /v1/match/stream answers split across two replicas and reassembled by seq
// equal one replica's answers in canonical wire form — findings, plans, pack
// and pack version included.
func TestMatchThroughFrontMatchesSingleReplica(t *testing.T) {
	reg, _ := json.Marshal(map[string]any{
		"pack":   "fleetpack",
		"source": idiomatic.LibrarySource(),
		"idioms": []map[string]any{{"name": "Dot", "top": "Reduction", "scheme": "reduction", "kind": "reduction"}},
	})
	register := func(url string) {
		t.Helper()
		resp, err := http.Post(url+"/v1/idioms", "application/json", bytes.NewReader(reg))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pack registration via %s: status %d", url, resp.StatusCode)
		}
	}
	var reqs []idiomatic.MatchRequest
	for i, src := range testSources() {
		req := idiomatic.MatchRequest{Name: src.Name, Source: src.Source}
		switch i % 3 {
		case 0:
			req.Pack = "fleetpack"
		case 1:
			req.Target = "GPU"
		}
		reqs = append(reqs, req)
	}
	body, _ := json.Marshal(reqs)
	post := func(url string) []byte {
		t.Helper()
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, resp.StatusCode, data)
		}
		return data
	}
	batch := func(url string) []idiomatic.MatchResult {
		t.Helper()
		var out struct {
			Results []idiomatic.MatchResult `json:"results"`
		}
		if err := json.Unmarshal(post(url+"/v1/match"), &out); err != nil {
			t.Fatal(err)
		}
		return out.Results
	}

	mono := newBackend(t, nil)
	register(mono.ts.URL)
	want := batch(mono.ts.URL)
	var plans, packed int
	for _, r := range want {
		plans += len(r.Plans)
		if r.Pack == "fleetpack" && r.PackVersion > 0 {
			packed++
		}
	}
	if plans == 0 || packed == 0 {
		t.Fatalf("single replica produced %d plans and %d pack results; the corpus must exercise both", plans, packed)
	}

	backs, _, fs := newFleet(t, 2, nil)
	register(fs.URL)
	got := batch(fs.URL)
	if len(got) != len(want) {
		t.Fatalf("fleet batch returned %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if canonicalMatch(t, got[i]) != canonicalMatch(t, want[i]) {
			t.Errorf("%s: fleet /v1/match result differs:\n got %s\nwant %s", want[i].Name,
				canonicalMatch(t, got[i]), canonicalMatch(t, want[i]))
		}
	}

	streamed := make([]*idiomatic.MatchResult, len(reqs))
	sc := bufio.NewScanner(bytes.NewReader(post(fs.URL + "/v1/match/stream")))
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		var r idiomatic.MatchResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON line: %v (%s)", err, sc.Bytes())
		}
		if r.Seq < 0 || r.Seq >= len(reqs) || streamed[r.Seq] != nil {
			t.Fatalf("line carries out-of-range or repeated seq %d", r.Seq)
		}
		streamed[r.Seq] = &r
	}
	for i := range want {
		if streamed[i] == nil {
			t.Fatalf("%s: no streamed line for seq %d", want[i].Name, i)
		}
		if canonicalMatch(t, *streamed[i]) != canonicalMatch(t, want[i]) {
			t.Errorf("%s: fleet /v1/match/stream result differs from the single-replica batch", want[i].Name)
		}
	}
	for i, b := range backs {
		if b.svc.Stats().Completed == 0 {
			t.Errorf("replica %d completed nothing; routing sent it no work", i)
		}
	}
}

// answer is a response as a client compares it: status, the headers an
// error envelope carries, and the body bytes.
type answer struct {
	status             int
	contentType, retry string
	body               string
}

func postAnswer(t *testing.T, url, deadline string, body []byte) answer {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if deadline != "" {
		req.Header.Set("X-Deadline-Ms", deadline)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return answer{resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"), string(data)}
}

// rejectingReplica is a fake replica that is healthy but answers every other
// request with the given status and error envelope, as a replica's intake
// does (with a retry hint on 429).
func rejectingReplica(t *testing.T, status int, code, msg string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			return
		}
		io.Copy(io.Discard, r.Body)
		env := idiomatic.ErrorEnvelope{Error: idiomatic.ErrorBody{Code: code, Message: msg}}
		if status == http.StatusTooManyRequests {
			env.Error.RetryAfterMs = 1000
			w.Header().Set("Retry-After", "1")
		}
		httpapi.WriteJSON(w, status, env)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// spanningBatch returns the test corpus, grown until it routes at least one
// module to every replica of the front.
func spanningBatch(t *testing.T, front *fleet.Front, replicas int) []idiomatic.DetectRequest {
	t.Helper()
	reqs := testSources()
	for i := 0; ; i++ {
		owners := map[string]bool{}
		for _, r := range reqs {
			owners[front.Route(r.Source)] = true
		}
		if len(owners) == replicas {
			return reqs
		}
		if i == 100 {
			t.Fatalf("100 extra modules never reached all %d replicas", replicas)
		}
		reqs = append(reqs, idiomatic.DetectRequest{
			Name:   fmt.Sprintf("g%d.c", i),
			Source: fmt.Sprintf("int g%d(int a) { return a + %d; }", i, i),
		})
	}
}

var routedPaths = []string{"/v1/detect", "/v1/detect/stream", "/v1/match", "/v1/match/stream"}

// TestFrontRejectsWhatReplicaRejects pins the front's rejection policy to a
// single replica's on every routed endpoint, batch and stream alike. A body
// the replicas' decoder rejects gets the same status and envelope bytes from
// the front, and no replica sees work. A replica that rejects its group fails
// the whole request with its envelope relayed verbatim; when two reject, the
// one owning the earliest submitted request wins.
func TestFrontRejectsWhatReplicaRejects(t *testing.T) {
	t.Run("decoder", func(t *testing.T) {
		mono := newBackend(t, nil)
		backs, _, fs := newFleet(t, 2, nil)
		src := testSources()
		valid, _ := json.Marshal(src[:2])
		bodies := []struct {
			name, deadline, body string
		}{
			{"idioms-number", "", fmt.Sprintf(`[{"name":"a.c","source":%q},{"name":"b.c","source":%q,"idioms":5}]`, src[0].Source, src[1].Source)},
			{"non-object-item", "", `[1]`},
			{"empty-batch", "", `[]`},
			{"bad-deadline", "soon", string(valid)},
		}
		for _, b := range bodies {
			for _, path := range routedPaths {
				want := postAnswer(t, mono.ts.URL+path, b.deadline, []byte(b.body))
				got := postAnswer(t, fs.URL+path, b.deadline, []byte(b.body))
				if want.status != http.StatusBadRequest {
					t.Fatalf("%s %s: replica answered %d, want 400: %s", b.name, path, want.status, want.body)
				}
				if got != want {
					t.Errorf("%s %s: front answered %+v; a replica answers %+v", b.name, path, got, want)
				}
			}
		}
		for i, b := range append(backs, mono) {
			if n := b.svc.Stats().Submitted; n != 0 {
				t.Errorf("replica %d: %d requests submitted; a rejected body must reach no replica", i, n)
			}
		}
	})

	for _, kinds := range [][]string{{"live", "429"}, {"400", "live"}, {"429", "400"}} {
		t.Run(strings.Join(kinds, "-"), func(t *testing.T) {
			urls := make([]string, len(kinds))
			rejects := map[string]bool{}
			for i, kind := range kinds {
				switch kind {
				case "live":
					urls[i] = newBackend(t, nil).ts.URL
				case "429":
					urls[i] = rejectingReplica(t, http.StatusTooManyRequests, idiomatic.CodeOverloaded, "idiomatic: service overloaded").URL
				case "400":
					urls[i] = rejectingReplica(t, http.StatusBadRequest, idiomatic.CodeInvalidRequest, `idiomatic: unknown pack "nope"`).URL
				}
				rejects[urls[i]] = kind != "live"
			}
			front, err := fleet.New(fleet.Options{Replicas: urls})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(front.Close)
			front.CheckNow()
			fs := httptest.NewServer(front.Handler())
			t.Cleanup(fs.Close)
			reqs := spanningBatch(t, front, len(urls))
			// The expected answer is the rejecting replica's own, from the
			// one owning the earliest submitted request when two reject.
			var rejecter string
			for _, r := range reqs {
				if owner := front.Route(r.Source); rejects[owner] {
					rejecter = owner
					break
				}
			}
			body, _ := json.Marshal(reqs)
			for _, path := range routedPaths {
				want := postAnswer(t, rejecter+path, "", body)
				got := postAnswer(t, fs.URL+path, "", body)
				if got != want {
					t.Errorf("%s: front answered %+v; the rejecting replica answers %+v", path, got, want)
				}
			}
		})
	}
}

// TestStalledReplicaDoesNotHangControlPlane pins the bound on the front's
// control-plane GETs: a replica that passes /healthz but stalls on every other
// path costs them at most the health interval, and counts as unreachable (its
// /statsz row has no stats).
func TestStalledReplicaDoesNotHangControlPlane(t *testing.T) {
	release := make(chan struct{})
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			return
		}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(stalled.Close)
	t.Cleanup(func() { close(release) })
	live := newBackend(t, nil)
	front, err := fleet.New(fleet.Options{
		Replicas:       []string{stalled.URL, live.ts.URL},
		HealthInterval: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	front.CheckNow()
	fs := httptest.NewServer(front.Handler())
	t.Cleanup(fs.Close)

	client := &http.Client{Timeout: 3 * time.Second}
	for _, path := range []string{"/statsz", "/v1/clients", "/v1/idioms", "/v1/backends"} {
		resp, err := client.Get(fs.URL + path)
		if err != nil {
			t.Errorf("GET %s with a stalled replica: %v", path, err)
			continue
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if path != "/statsz" {
			continue
		}
		var stats fleet.FleetStatsResponse
		if err := json.Unmarshal(data, &stats); err != nil || len(stats.Rows) != 2 {
			t.Fatalf("statsz: %v (%s)", err, data)
		}
		if stats.Rows[0].Stats != nil {
			t.Errorf("stalled replica's statsz row carries stats: %+v", stats.Rows[0])
		}
		if stats.Rows[1].Stats == nil {
			t.Errorf("live replica's statsz row has no stats")
		}
	}
}
