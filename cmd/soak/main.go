// Command soak is the multi-tenant hostile-traffic harness: it stands up an
// authenticated idiomd front door in-process and drives it with three
// clients at once — a heavy tenant flooding whole-suite detect batches, a
// light tenant issuing small closed-loop requests, and an admin "packer"
// registering idiom packs, running /v1/match and probing per-request
// deadlines — then asserts the fairness contract held:
//
//   - the light tenant's served-module share stays >= -min-share even while
//     the heavy tenant floods (weights are equal, so deficit round-robin
//     owes it half the service);
//   - the light tenant's p99 latency under flood stays within 2x its solo
//     baseline (floored at -p99-floor to absorb scheduler noise);
//   - unauthenticated requests get the structured 401 envelope, never a
//     hang or a torn response;
//   - every in-flight gauge drains to zero at the end — no leaked workers.
//
// CI runs `make soak-smoke` (a short -race run) next to serve-smoke; longer
// soaks are a -duration flag away. Exit status is non-zero on any violated
// assertion, so the harness doubles as a regression gate.
//
// With -addr the harness skips the in-process server and drives an already
// running idiomd — or an idiomfront fleet router — instead, so the same
// fairness contract can be asserted through the consistent-hash front door.
// The target must be started with this harness's keyfile; `soak -print-keys`
// emits it for provisioning.
//
// Usage:
//
//	soak [-duration 30s] [-j 4] [-slots 2] [-min-share 0.4] [-p99-floor 150ms]
//	soak -addr http://127.0.0.1:8174 [-duration 10s] [-min-share 0.2]
//	soak -print-keys > keys.txt
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/idiomatic"
	"repro/internal/httpapi"
	"repro/internal/workloads"
)

const (
	lightKey = "soak-light-key"
	heavyKey = "soak-heavy-key"
	adminKey = "soak-admin-key"

	// lightConns is the light tenant's closed-loop connection count. The
	// DRR share guarantee only covers a backlogged client: enough
	// outstanding requests must exist to fill the light tenant's fair
	// share of solver slots, or the measured share reflects its own
	// submission rate rather than the scheduler.
	lightConns = 6

	// lightSource is a cheap single-reduction module: the light tenant's
	// latency is dominated by queueing, which is exactly what the fairness
	// asserts need to observe.
	lightSource = "double light(double* x, int n) { double a = 0.0; for (int i = 0; i < n; i++) { a = a + x[i]; } return a; }"
)

// keyfile gives light and heavy EQUAL weight: the fairness floor below is a
// pure deficit-round-robin guarantee, not a weight artifact.
const keyfile = lightKey + " light 1\n" + heavyKey + " heavy 1\n" + adminKey + " ops 1 admin\n"

type config struct {
	duration time.Duration
	workers  int
	slots    int
	minShare float64
	p99Floor time.Duration
	addr     string
}

type harness struct {
	cfg    config
	url    string
	client *http.Client
	fails  atomic.Int64
}

func main() {
	var cfg config
	flag.DurationVar(&cfg.duration, "duration", 30*time.Second, "total soak length (25% baseline, 75% mixed flood)")
	flag.IntVar(&cfg.workers, "j", 4, "service compile/solver workers")
	flag.IntVar(&cfg.slots, "slots", 2, "solver-pool slot bound (small keeps the fair-share gate hot: a light module waits behind at most slots-1 heavy ones)")
	flag.Float64Var(&cfg.minShare, "min-share", 0.4, "light tenant's minimum served-module share during the flood")
	flag.DurationVar(&cfg.p99Floor, "p99-floor", 150*time.Millisecond, "noise floor for the p99 comparison (budget = 2 * max(baseline p99, floor))")
	flag.StringVar(&cfg.addr, "addr", "", "drive an already-running server (idiomd or idiomfront base URL) instead of an in-process one; it must use this harness's keyfile (see -print-keys)")
	printKeys := flag.Bool("print-keys", false, "print the harness keyfile to stdout and exit (for provisioning an external -addr target)")
	flag.Parse()

	if *printKeys {
		fmt.Print(keyfile)
		return
	}

	// In -addr mode the target server owns its own lifecycle and tuning
	// flags (-j, -slots act on the in-process service only); the
	// harness is a pure client, so the drain assert reads gauges over HTTP.
	var svc *idiomatic.Service
	h := &harness{cfg: cfg, client: &http.Client{}}
	if cfg.addr != "" {
		h.url = strings.TrimRight(cfg.addr, "/")
	} else {
		var err error
		svc, err = idiomatic.NewService(idiomatic.ServiceOptions{
			Workers:     cfg.workers,
			QueueLimit:  -1,
			DetectSlots: cfg.slots,
			NoMemo:      true, // every solve pays full price, so fairness is load-bearing
		})
		if err != nil {
			fatal(err)
		}
		kr, err := httpapi.ParseKeyring(strings.NewReader(keyfile))
		if err != nil {
			fatal(err)
		}
		ts := httptest.NewServer(httpapi.NewServer(svc, httpapi.Options{Keys: kr}))
		defer ts.Close()
		defer svc.Close()
		h.url = ts.URL
	}

	h.probeAuth()

	baseline := h.baselinePhase()
	light, heavy := h.mixedPhase(baseline)

	// Drain: every fairness gauge must return to zero once traffic stops.
	h.assertDrained(svc)

	fmt.Printf("soak: light %d served / heavy %d served, baseline p99 %v, flood p99 %v\n",
		light.served, heavy, baseline, light.p99)
	if n := h.fails.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "soak: FAIL (%d assertion(s) violated)\n", n)
		os.Exit(1)
	}
	fmt.Println("soak: PASS")
}

// probeAuth pins the unauthenticated contract: no key and a wrong key both
// get the structured 401 envelope, and open endpoints stay open.
func (h *harness) probeAuth() {
	for _, tc := range []struct{ name, key string }{
		{"no key", ""},
		{"unknown key", "not-a-key"},
	} {
		req, err := http.NewRequest(http.MethodPost, h.url+"/v1/detect",
			strings.NewReader(`{"name":"x.c","source":"`+lightSource+`"}`))
		if err != nil {
			fatal(err)
		}
		if tc.key != "" {
			req.Header.Set("X-API-Key", tc.key)
		}
		resp, err := h.client.Do(req)
		if err != nil {
			fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var env idiomatic.ErrorEnvelope
		if resp.StatusCode != http.StatusUnauthorized ||
			json.Unmarshal(body, &env) != nil || env.Error.Code != idiomatic.CodeUnauthenticated {
			h.failf("auth probe (%s): got status %d body %s, want 401 %q envelope",
				tc.name, resp.StatusCode, body, idiomatic.CodeUnauthenticated)
		}
	}
	resp, err := h.client.Get(h.url + "/healthz")
	if err != nil {
		fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.failf("auth probe: /healthz = %d with auth enabled, want 200 (open endpoint)", resp.StatusCode)
	}
}

// baselinePhase runs the light tenant alone for a quarter of the soak and
// returns its solo p99 — the yardstick the flood phase is held to.
func (h *harness) baselinePhase() time.Duration {
	stop := make(chan struct{})
	time.AfterFunc(h.cfg.duration/4, func() { close(stop) })
	lat := h.lightLoop(stop)
	if len(lat) == 0 {
		h.failf("baseline: light tenant completed zero requests")
		return h.cfg.p99Floor
	}
	return p99(lat)
}

type lightReport struct {
	served int64
	p99    time.Duration
}

// mixedPhase floods the service with the heavy tenant while the light
// tenant keeps its closed loop running and the admin packer churns pack
// registrations, match requests and pre-expired deadlines. It returns the
// light tenant's report and the heavy tenant's served-module count over the
// phase, asserting the share and p99 contracts.
func (h *harness) mixedPhase(baseline time.Duration) (lightReport, int64) {
	before := h.clientRows()

	stopC := make(chan struct{})
	var wg sync.WaitGroup

	// Heavy tenant: 8 connections, each flooding 4-module batches drawn
	// from the paper suite — dozens of costly modules in flight at once.
	// The most expensive solves (lbm, MG, BT...) are excluded: solver
	// workers are not preemptible, so one multi-hundred-ms solve would put
	// its whole duration into the light tenant's tail no matter how fair
	// the queueing is, and under -race that head-of-line quantum grows
	// ~10x. The moderate pool keeps heavy solves ~10x the light module's
	// cost — expensive enough that fairness is load-bearing, bounded
	// enough that the p99 assert measures queueing, not one solve.
	var suite []*workloads.Workload
	for _, w := range workloads.All() {
		switch w.Name {
		case "BT", "CG", "MG", "lbm", "mri-q", "stencil":
			continue
		}
		suite = append(suite, w)
	}
	for conn := 0; conn < 8; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for i := conn; ; i += 8 {
				select {
				case <-stopC:
					return
				default:
				}
				var reqs []idiomatic.DetectRequest
				for k := 0; k < 4; k++ {
					w := suite[(i*4+k)%len(suite)]
					reqs = append(reqs, idiomatic.DetectRequest{Name: w.Name, Source: w.Source})
				}
				body, err := json.Marshal(reqs)
				if err != nil {
					fatal(err)
				}
				h.post("/v1/detect", heavyKey, body, "heavy batch")
			}
		}(conn)
	}

	// Admin packer: registers packs live, matches through them, probes a
	// pre-expired per-request deadline (must be reported in-band) and reads
	// the admin surface — all while the flood is on.
	wg.Add(1)
	go func() {
		defer wg.Done()
		lib := idiomatic.LibrarySource()
		// The doomed probe needs a module whose compile+solve outlasts its
		// 1ms budget on ANY target, loaded or idle — the solver only
		// notices an expired deadline at its next poll, so a module cheap
		// enough to finish between polls can race past the deadline on an
		// idle replica. lbm is a multi-hundred-ms solve; the abort fires
		// ~1ms in, so the probe never occupies a worker for that long.
		doomed, err := json.Marshal(map[string]any{
			"name":        "doomed.c",
			"source":      workloadSource("lbm"),
			"deadline_ms": 1,
		})
		if err != nil {
			fatal(err)
		}
		for i := 0; ; i++ {
			select {
			case <-stopC:
				return
			default:
			}
			pack := fmt.Sprintf("soak%d", i%4)
			body, err := json.Marshal(map[string]any{
				"pack":   pack,
				"source": lib,
				"idioms": []map[string]any{{"top": "Reduction", "scheme": "reduction"}},
			})
			if err != nil {
				fatal(err)
			}
			h.post("/v1/idioms", adminKey, body, "pack registration")
			h.post("/v1/match", adminKey,
				[]byte(`{"name":"m.c","source":"`+lightSource+`","pack":"`+pack+`"}`), "match via pack")

			// A deadline that expires before the solve can finish must come
			// back as an in-band per-module report, never a torn response.
			resp, body2 := h.do(http.MethodPost, "/v1/detect", adminKey, doomed, nil)
			var out struct {
				Results []idiomatic.DetectResult `json:"results"`
			}
			if resp != http.StatusOK || json.Unmarshal(body2, &out) != nil ||
				len(out.Results) != 1 || !strings.Contains(out.Results[0].Err, "deadline exceeded") {
				h.failf("packer: pre-expired deadline not reported in-band: status %d body %s", resp, body2)
			}
			h.clientRows() // admin surface stays live under flood
			time.Sleep(100 * time.Millisecond)
		}
	}()

	// Light tenant: same closed loop as the baseline, now under flood.
	stop := make(chan struct{})
	time.AfterFunc(h.cfg.duration*3/4, func() { close(stop) })
	lat := h.lightLoop(stop)
	close(stopC)
	wg.Wait()

	after := h.clientRows()
	lightServed := after["light"].Served - before["light"].Served
	heavyServed := after["heavy"].Served - before["heavy"].Served

	rep := lightReport{served: lightServed}
	if len(lat) == 0 {
		h.failf("flood: light tenant completed zero requests")
		return rep, heavyServed
	}
	rep.p99 = p99(lat)

	if total := lightServed + heavyServed; total > 0 {
		share := float64(lightServed) / float64(total)
		if share < h.cfg.minShare {
			h.failf("fairness: light share %.2f (%d/%d) < %.2f under equal weights",
				share, lightServed, total, h.cfg.minShare)
		} else {
			fmt.Printf("soak: light share %.2f (%d/%d) >= %.2f\n", share, lightServed, total, h.cfg.minShare)
		}
	}
	budget := 2 * maxDur(baseline, h.cfg.p99Floor)
	if rep.p99 > budget {
		h.failf("latency: light p99 %v under flood > budget %v (2 * max(baseline %v, floor %v))",
			rep.p99, budget, baseline, h.cfg.p99Floor)
	} else {
		fmt.Printf("soak: light p99 %v under flood <= budget %v\n", rep.p99, budget)
	}
	return rep, heavyServed
}

// lightLoop runs two closed-loop connections issuing single cheap modules
// until stop closes, returning every request's latency. The two outstanding
// requests keep the light tenant's fair-share queue non-empty, which is the
// precondition for the DRR share guarantee. stop must be closed, not sent
// to: both connections select on it, and a one-shot timer channel would
// release only one of them.
func (h *harness) lightLoop(stop <-chan struct{}) []time.Duration {
	var mu sync.Mutex
	var all []time.Duration
	var wg sync.WaitGroup
	body := []byte(`{"name":"light.c","source":"` + lightSource + `"}`)
	for conn := 0; conn < lightConns; conn++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				status, resp := h.do(http.MethodPost, "/v1/detect", lightKey, body, nil)
				d := time.Since(start)
				if status != http.StatusOK {
					h.failf("light request got status %d: %s", status, resp)
					continue
				}
				var out struct {
					Results []idiomatic.DetectResult `json:"results"`
				}
				if json.Unmarshal(resp, &out) != nil || len(out.Results) != 1 || out.Results[0].Err != "" {
					h.failf("light request got malformed body: %s", resp)
					continue
				}
				mu.Lock()
				all = append(all, d)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return all
}

// clientRows reads the admin fairness surface into a by-name map.
func (h *harness) clientRows() map[string]httpapi.ClientInfo {
	status, body := h.do(http.MethodGet, "/v1/clients", adminKey, nil, nil)
	var out struct {
		Clients []httpapi.ClientInfo `json:"clients"`
	}
	if status != http.StatusOK || json.Unmarshal(body, &out) != nil {
		h.failf("/v1/clients: status %d body %s", status, body)
		return nil
	}
	rows := make(map[string]httpapi.ClientInfo, len(out.Clients))
	for _, c := range out.Clients {
		rows[c.Name] = c
	}
	return rows
}

// drainStats is the subset of a replica's stats the drain assert watches.
// It unmarshals from both an in-process StatsResponse and the /statsz wire
// shape of a single idiomd.
type drainStats struct {
	InFlight     int `json:"in_flight"`
	SolveActive  int `json:"solve_active"`
	DetectActive int `json:"detect_active"`
}

// drainProbe additionally understands idiomfront's aggregated /statsz, where
// per-replica gauges live under "replicas":[{"stats":{...}}]. A non-empty
// Replicas list means the target is a fleet router; otherwise the top-level
// fields are a single replica's own gauges.
type drainProbe struct {
	drainStats
	Replicas []struct {
		Stats *drainStats `json:"stats"`
	} `json:"replicas"`
}

func (dp *drainProbe) gauges() []drainStats {
	if len(dp.Replicas) == 0 {
		return []drainStats{dp.drainStats}
	}
	var out []drainStats
	for _, r := range dp.Replicas {
		if r.Stats != nil {
			out = append(out, *r.Stats)
		}
	}
	return out
}

func (h *harness) assertDrained(svc *idiomatic.Service) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if h.idleNow(svc) {
			break
		}
		if time.Now().After(deadline) {
			h.failf("drain: in-flight gauges still non-zero 10s after the soak stopped")
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// gaugesNow snapshots every replica's drain gauges. With an in-process
// service it asks Stats() directly; in -addr mode it polls /statsz,
// expanding fleet replicas when the target is idiomfront. nil means the
// probe itself failed.
func (h *harness) gaugesNow(svc *idiomatic.Service) []drainStats {
	if svc != nil {
		st := svc.Stats()
		return []drainStats{{
			InFlight:     st.InFlight,
			SolveActive:  st.SolveActive,
			DetectActive: st.DetectActive,
		}}
	}
	status, body := h.do(http.MethodGet, "/statsz", adminKey, nil, nil)
	if status != http.StatusOK {
		return nil
	}
	var probe drainProbe
	if json.Unmarshal(body, &probe) != nil {
		return nil
	}
	return probe.gauges()
}

// idleNow reports whether every worker and per-client gauge reads zero.
func (h *harness) idleNow(svc *idiomatic.Service) bool {
	gauges := h.gaugesNow(svc)
	if gauges == nil {
		return false
	}
	for _, g := range gauges {
		if g.InFlight != 0 || g.SolveActive != 0 || g.DetectActive != 0 {
			return false
		}
	}
	for _, c := range h.clientRows() {
		if c.InFlight != 0 || c.IntakeQueue != 0 || c.ReadyQueue != 0 {
			return false
		}
	}
	return true
}

// post issues an authenticated POST and asserts 2xx; the soak has no rate
// limits configured, so every authenticated request must be admitted.
func (h *harness) post(path, key string, body []byte, what string) {
	status, resp := h.do(http.MethodPost, path, key, body, nil)
	if status != http.StatusOK {
		h.failf("%s: status %d: %s", what, status, resp)
	}
}

func (h *harness) do(method, path, key string, body []byte, hdr map[string]string) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.url+path, rd)
	if err != nil {
		fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(err)
	}
	return resp.StatusCode, data
}

func (h *harness) failf(format string, args ...any) {
	h.fails.Add(1)
	fmt.Fprintf(os.Stderr, "soak: FAIL: "+format+"\n", args...)
}

// workloadSource returns the named paper-suite module's source.
func workloadSource(name string) string {
	for _, w := range workloads.All() {
		if w.Name == name {
			return w.Source
		}
	}
	fatal(fmt.Errorf("no workload named %q in the suite", name))
	return ""
}

func p99(lat []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (99*len(sorted) + 99) / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "soak:", err)
	os.Exit(1)
}
