// Command benchjson records the perf trajectory artifact: it runs the
// detection-engine scaling benchmark, the streaming pipeline benchmark and
// the HTTP serving-path benchmark programmatically (via testing.Benchmark)
// and writes a machine-readable JSON file — ns/op per worker count plus the
// solver-memo hit rate — so each PR's numbers are comparable. CI runs
// `make bench-json` at GOMAXPROCS=4 as a smoke step — the worker-count rows
// are meaningless on one CPU — and uploads the file as a workflow artifact
// named for the PR (BENCH_pr<N>.json).
//
// Usage:
//
//	benchjson [-pr 9] [-out BENCH_pr9.json]
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/idiomatic"
	"repro/internal/constraint"
	"repro/internal/detect"
	"repro/internal/httpapi"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

type benchRow struct {
	Name       string  `json:"name"`
	Workers    int     `json:"workers"`
	Iterations int     `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
}

type memoStats struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// pruneModeStats summarizes one prune mode's single-pass suite run: what the
// prescreen spent, what it skipped or moved, and its share of the wall time.
type pruneModeStats struct {
	Mode        string  `json:"mode"`
	Skipped     int64   `json:"skipped"`
	Reordered   int64   `json:"reordered"`
	PrescreenNs int64   `json:"prescreen_ns"`
	SuiteNs     int64   `json:"suite_ns"`
	OverheadPct float64 `json:"overhead_pct"`
}

type artifact struct {
	PR         int              `json:"pr"`
	GoVersion  string           `json:"go_version"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Benchmarks []benchRow       `json:"benchmarks"`
	Memo       memoStats        `json:"memo"`
	ServeMemo  memoStats        `json:"serve_memo"`
	Prune      []pruneModeStats `json:"prune"`
}

func main() {
	pr := flag.Int("pr", 8, "PR number stamped into the artifact")
	out := flag.String("out", "", "output path (default BENCH_pr<N>.json)")
	flag.Parse()
	if *out == "" {
		*out = fmt.Sprintf("BENCH_pr%d.json", *pr)
	}

	mods, err := compileAll()
	if err != nil {
		fatal(err)
	}

	a := &artifact{
		PR:         *pr,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	workerCounts := []int{1, 2, 4, 8}

	// Engine scaling over pre-compiled modules, fresh solves only.
	for _, workers := range workerCounts {
		eng, err := detect.NewEngine(detect.Options{Workers: workers, NoMemo: true})
		if err != nil {
			fatal(err)
		}
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := detectBatch(eng, mods); err != nil {
					b.Fatal(err)
				}
			}
		})
		a.Benchmarks = append(a.Benchmarks, row("DetectParallel", workers, r))
	}

	// Similarity-guided prescreening: the suite streamed per prune mode, cold
	// (fresh solves every pass) and warm (persistent engine whose solve memo
	// and cost table fill up like a long-lived server's — reorder's
	// cost-ordered scheduling only has measured costs to work with here).
	// The acceptance bar: prune=on cold beats prune=off cold, and reorder's
	// prescreen overhead stays well under 1% of the suite wall time.
	for _, mode := range []detect.PruneMode{detect.PruneOff, detect.PruneReorder, detect.PruneOn} {
		cold, err := detect.NewEngine(detect.Options{Workers: 4, NoMemo: true, Prune: mode})
		if err != nil {
			fatal(err)
		}
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := streamBatch(cold, mods); err != nil {
					b.Fatal(err)
				}
			}
		})
		a.Benchmarks = append(a.Benchmarks, benchRow{
			Name:       fmt.Sprintf("Prune/mode=%s/cold", mode),
			Workers:    4,
			Iterations: r.N,
			NsPerOp:    float64(r.NsPerOp()),
		})

		warm, err := detect.NewEngine(detect.Options{Workers: 4, Prune: mode})
		if err != nil {
			fatal(err)
		}
		r = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := streamBatch(warm, mods); err != nil {
					b.Fatal(err)
				}
			}
		})
		a.Benchmarks = append(a.Benchmarks, benchRow{
			Name:       fmt.Sprintf("Prune/mode=%s/warm", mode),
			Workers:    4,
			Iterations: r.N,
			NsPerOp:    float64(r.NsPerOp()),
		})

		ps, err := pruneOnePass(mode, mods)
		if err != nil {
			fatal(err)
		}
		a.Prune = append(a.Prune, ps)
	}

	// Streaming pipeline end to end (compile + detect), memo off then on.
	for _, memo := range []bool{false, true} {
		var cache *constraint.SolveCache
		if memo {
			cache = constraint.NewSolveCache()
		}
		for _, workers := range workerCounts {
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := pipelineRun(workers, memo, cache); err != nil {
						b.Fatal(err)
					}
				}
			})
			name := "Pipeline/memo=off"
			if memo {
				name = "Pipeline/memo=on"
			}
			a.Benchmarks = append(a.Benchmarks, row(name, workers, r))
		}
		if memo {
			hits, misses := cache.Stats()
			a.Memo = memoStats{Hits: hits, Misses: misses}
			if hits+misses > 0 {
				a.Memo.HitRate = float64(hits) / float64(hits+misses)
			}
		}
	}

	// Serving path: the full suite POSTed to /v1/detect/stream of a live
	// idiomatic.Service behind the HTTP front door — what a production
	// deployment pays per whole-suite request, JSON framing included. The
	// memo=on rows reuse one service across iterations, so its private cache
	// warms exactly like a long-lived server's.
	body, err := suiteBody()
	if err != nil {
		fatal(err)
	}
	for _, memo := range []bool{false, true} {
		var lastStats idiomatic.StatsResponse
		for _, workers := range workerCounts {
			svc, err := idiomatic.NewService(idiomatic.ServiceOptions{
				Workers: workers, QueueLimit: -1, NoMemo: !memo,
			})
			if err != nil {
				fatal(err)
			}
			ts := httptest.NewServer(httpapi.New(svc))
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := serveRun(ts.URL, body); err != nil {
						b.Fatal(err)
					}
				}
			})
			lastStats = svc.Stats()
			ts.Close()
			svc.Close()
			name := "ServeStream/memo=off"
			if memo {
				name = "ServeStream/memo=on"
			}
			a.Benchmarks = append(a.Benchmarks, row(name, workers, r))
		}
		if memo {
			m := lastStats.Memo
			a.ServeMemo = memoStats{Hits: m.Hits, Misses: m.Misses, HitRate: m.HitRate}
		}
	}

	// Match pipeline over the same front door: detection plus transformation
	// plans and backend selection per request (ServeStream measures the
	// detection-only path; the delta is the transformation leg's cost). The
	// memo=on service persists across worker counts like a warm server.
	matchBody, err := matchSuiteBody()
	if err != nil {
		fatal(err)
	}
	for _, memo := range []bool{false, true} {
		for _, workers := range workerCounts {
			svc, err := idiomatic.NewService(idiomatic.ServiceOptions{
				Workers: workers, QueueLimit: -1, NoMemo: !memo,
			})
			if err != nil {
				fatal(err)
			}
			ts := httptest.NewServer(httpapi.New(svc))
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := serveMatchRun(ts.URL, matchBody); err != nil {
						b.Fatal(err)
					}
				}
			})
			ts.Close()
			svc.Close()
			name := "ServeMatch/memo=off"
			if memo {
				name = "ServeMatch/memo=on"
			}
			a.Benchmarks = append(a.Benchmarks, row(name, workers, r))
		}
	}

	// Weighted-fair serving: one light tenant's single-module request
	// latency through an authenticated front door while a heavy tenant
	// floods 4-module batches, at increasing light-tenant weights. The
	// 1:1 row is the pure deficit-round-robin guarantee; the 4:1 row
	// shows weight actually buying service share (lower light latency
	// under the same flood).
	for _, fw := range []struct {
		label  string
		weight int
	}{{"1to1", 1}, {"4to1", 4}} {
		r, err := serveFairBench(fw.weight)
		if err != nil {
			fatal(err)
		}
		a.Benchmarks = append(a.Benchmarks, benchRow{
			Name:       fmt.Sprintf("ServeFair/weights=%s", fw.label),
			Workers:    4,
			Iterations: r.N,
			NsPerOp:    float64(r.NsPerOp()),
		})
	}

	// Warm-start trajectory: service boot plus ONE whole-suite pass under the
	// three durability modes. cold pays every solve; statedir boots onto an
	// already-spilled state dir and read-throughs from disk; snapshot ingests
	// a donor's memo snapshot into a fresh state dir first (the -warm-from
	// path). The statedir and snapshot rows bound what a restart or a fleet
	// handoff saves relative to cold.
	warmRows, err := warmStartBench()
	if err != nil {
		fatal(err)
	}
	a.Benchmarks = append(a.Benchmarks, warmRows...)

	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %d benchmarks, memo hit rate %.1f%% (pipeline) / %.1f%% (serve)\n",
		*out, len(a.Benchmarks), 100*a.Memo.HitRate, 100*a.ServeMemo.HitRate)
}

func row(name string, workers int, r testing.BenchmarkResult) benchRow {
	return benchRow{
		Name:       fmt.Sprintf("%s/workers=%d", name, workers),
		Workers:    workers,
		Iterations: r.N,
		NsPerOp:    float64(r.NsPerOp()),
	}
}

func compileAll() ([]*ir.Module, error) {
	ws := workloads.All()
	mods := make([]*ir.Module, len(ws))
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		i, w := i, w
		wg.Add(1)
		go func() {
			defer wg.Done()
			mods[i], errs[i] = w.Compile()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ws[i].Name, err)
		}
	}
	return mods, nil
}

func detectBatch(eng *detect.Engine, mods []*ir.Module) error {
	results, err := eng.Modules(mods)
	if err != nil {
		return err
	}
	return assertTotal(results)
}

// streamBatch runs the whole batch through the engine's streaming front door
// and checks the instance total.
func streamBatch(eng *detect.Engine, mods []*ir.Module) error {
	st := eng.Stream(len(mods))
	for _, mod := range mods {
		st.Submit(mod)
	}
	st.Close()
	results := make([]*detect.Result, 0, len(mods))
	for sr := range st.Results() {
		if sr.Err != nil {
			return sr.Err
		}
		results = append(results, sr.Result)
	}
	return assertTotal(results)
}

func pipelineRun(workers int, memo bool, cache *constraint.SolveCache) error {
	opts := detect.Options{Workers: workers, NoMemo: !memo, Memo: cache}
	p, err := pipeline.New(pipeline.Options{Detect: opts})
	if err != nil {
		return err
	}
	defer p.Close()
	ws := workloads.All()
	jobs := make([]*pipeline.Job, 0, len(ws))
	for _, w := range ws {
		jobs = append(jobs, p.Submit(w.Name, w.Compile))
	}
	results, err := pipeline.Collect(jobs)
	if err != nil {
		return err
	}
	return assertTotal(results)
}

func suiteBody() ([]byte, error) {
	var reqs []idiomatic.DetectRequest
	for _, w := range workloads.All() {
		reqs = append(reqs, idiomatic.DetectRequest{Name: w.Name, Source: w.Source})
	}
	return json.Marshal(reqs)
}

func matchSuiteBody() ([]byte, error) {
	var reqs []idiomatic.MatchRequest
	for _, w := range workloads.All() {
		reqs = append(reqs, idiomatic.MatchRequest{Name: w.Name, Source: w.Source})
	}
	return json.Marshal(reqs)
}

func serveMatchRun(url string, body []byte) error {
	resp, err := http.Post(url+"/v1/match/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	lines, plans := 0, 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var res idiomatic.MatchResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return err
		}
		if res.Err != "" {
			return fmt.Errorf("%s: %s", res.Name, res.Err)
		}
		lines++
		plans += len(res.Plans)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if lines != len(workloads.All()) || plans != 60 {
		return fmt.Errorf("match stream delivered %d lines / %d plans, want %d / 60",
			lines, plans, len(workloads.All()))
	}
	return nil
}

func serveRun(url string, body []byte) error {
	resp, err := http.Post(url+"/v1/detect/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	total, lines := 0, 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var res idiomatic.DetectResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return err
		}
		if res.Err != "" {
			return fmt.Errorf("%s: %s", res.Name, res.Err)
		}
		lines++
		total += len(res.Findings)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if lines != len(workloads.All()) || total != 60 {
		return fmt.Errorf("stream delivered %d lines / %d findings, want %d / 60",
			lines, total, len(workloads.All()))
	}
	return nil
}

// serveFairBench measures the light tenant's /v1/detect latency (one cheap
// module per request) while a heavy tenant floods 4-module batches over four
// closed-loop connections, with the light tenant's fair-share weight set to
// lightWeight against the heavy tenant's 1. Solver slots are bounded at 2 so
// the weighted DRR admission gate — not pool width — decides who is served.
func serveFairBench(lightWeight int) (testing.BenchmarkResult, error) {
	const lightSource = "double light(double* x, int n) { double a = 0.0; for (int i = 0; i < n; i++) { a = a + x[i]; } return a; }"
	svc, err := idiomatic.NewService(idiomatic.ServiceOptions{
		Workers: 4, QueueLimit: -1, DetectSlots: 2, NoMemo: true,
	})
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	defer svc.Close()
	keys := fmt.Sprintf("bench-light light %d\nbench-heavy heavy 1\n", lightWeight)
	kr, err := httpapi.ParseKeyring(bytes.NewReader([]byte(keys)))
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	ts := httptest.NewServer(httpapi.NewServer(svc, httpapi.Options{Keys: kr}))
	defer ts.Close()

	// Heavy flood: moderate-cost suite modules only, as in cmd/soak — solver
	// workers are not preemptible, so a multi-hundred-ms solve would put its
	// whole duration into the light tenant's measurement regardless of
	// queueing order.
	var suite []*workloads.Workload
	for _, w := range workloads.All() {
		switch w.Name {
		case "BT", "CG", "MG", "lbm", "mri-q", "stencil":
			continue
		}
		suite = append(suite, w)
	}
	stop := make(chan struct{})
	var flood sync.WaitGroup
	for conn := 0; conn < 4; conn++ {
		flood.Add(1)
		go func(conn int) {
			defer flood.Done()
			for i := conn; ; i += 4 {
				select {
				case <-stop:
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
					return
				}
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/detect", bytes.NewReader(body))
				if err != nil {
					return
				}
				req.Header.Set("X-API-Key", "bench-heavy")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(conn)
	}
	defer func() { close(stop); flood.Wait() }()

	lightBody := []byte(`[{"name":"light.c","source":"` + lightSource + `"}]`)
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/detect", bytes.NewReader(lightBody))
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set("X-API-Key", "bench-light")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				benchErr = fmt.Errorf("light request: status %d body %s", resp.StatusCode, body)
				b.Fatal(benchErr)
			}
		}
	})
	return r, benchErr
}

// warmStartBench times NewService + one whole-suite DetectBatch + Close per
// durability mode. A donor service warms one state dir (and emits one memo
// snapshot) up front; the timed iterations then boot cold (fresh empty dir),
// onto the warmed dir, or into a fresh dir seeded from the snapshot.
func warmStartBench() ([]benchRow, error) {
	ctx := context.Background()
	var reqs []idiomatic.DetectRequest
	for _, w := range workloads.All() {
		reqs = append(reqs, idiomatic.DetectRequest{Name: w.Name, Source: w.Source})
	}
	onePass := func(svc *idiomatic.Service) error {
		results, err := svc.DetectBatch(ctx, reqs)
		if err != nil {
			return err
		}
		total := 0
		for _, res := range results {
			if res.Err != "" {
				return fmt.Errorf("%s: %s", res.Name, res.Err)
			}
			total += len(res.Findings)
		}
		if total != 60 {
			return fmt.Errorf("warm-start pass found %d idioms, want 60", total)
		}
		return nil
	}

	seedDir, err := os.MkdirTemp("", "benchjson-warm-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(seedDir)
	donor, err := idiomatic.NewService(idiomatic.ServiceOptions{
		Workers: 4, QueueLimit: -1, StateDir: seedDir,
	})
	if err != nil {
		return nil, err
	}
	if err := onePass(donor); err != nil {
		donor.Close()
		return nil, err
	}
	var snap bytes.Buffer
	if err := donor.WriteMemoSnapshot(&snap); err != nil {
		donor.Close()
		return nil, err
	}
	donor.Close() // flushes pending spills into seedDir

	var rows []benchRow
	for _, mode := range []string{"cold", "statedir", "snapshot"} {
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dir := seedDir
				if mode != "statedir" {
					dir, benchErr = os.MkdirTemp("", "benchjson-warm-")
					if benchErr != nil {
						b.Fatal(benchErr)
					}
				}
				svc, err := idiomatic.NewService(idiomatic.ServiceOptions{
					Workers: 4, QueueLimit: -1, StateDir: dir,
				})
				if err != nil {
					benchErr = err
					b.Fatal(err)
				}
				if mode == "snapshot" {
					if _, _, err := svc.IngestMemoSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
						benchErr = err
						b.Fatal(err)
					}
				}
				if err := onePass(svc); err != nil {
					benchErr = err
					b.Fatal(err)
				}
				svc.Close()
				if dir != seedDir {
					os.RemoveAll(dir)
				}
			}
		})
		if benchErr != nil {
			return nil, benchErr
		}
		rows = append(rows, benchRow{
			Name:       fmt.Sprintf("WarmStart/mode=%s", mode),
			Workers:    4,
			Iterations: r.N,
			NsPerOp:    float64(r.NsPerOp()),
		})
	}
	return rows, nil
}

// pruneOnePass runs the suite once through a fresh cold engine and reads the
// prescreen counters off it: single-pass numbers, so the overhead fraction is
// exact rather than smeared across testing.Benchmark's probe rounds.
func pruneOnePass(mode detect.PruneMode, mods []*ir.Module) (pruneModeStats, error) {
	eng, err := detect.NewEngine(detect.Options{Workers: 4, NoMemo: true, Prune: mode})
	if err != nil {
		return pruneModeStats{}, err
	}
	start := time.Now()
	if err := streamBatch(eng, mods); err != nil {
		return pruneModeStats{}, err
	}
	suiteNs := time.Since(start).Nanoseconds()
	skipped, reordered, prescreenNs := eng.PruneStats()
	ps := pruneModeStats{
		Mode:        mode.String(),
		Skipped:     skipped,
		Reordered:   reordered,
		PrescreenNs: prescreenNs,
		SuiteNs:     suiteNs,
	}
	if suiteNs > 0 {
		ps.OverheadPct = 100 * float64(prescreenNs) / float64(suiteNs)
	}
	return ps, nil
}

func assertTotal(results []*detect.Result) error {
	total := 0
	for _, res := range results {
		total += len(res.Instances)
	}
	if total != 60 {
		return fmt.Errorf("detected %d idioms, want 60", total)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
