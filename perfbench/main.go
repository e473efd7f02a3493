// Command perfbench is the repository's benchmark: one process that drives
// the idiom-matching system through its public entry points under a named,
// seeded workload, checks every answer against the paper's Table 1, and
// prints the workload's end-to-end metrics (or, with --trace 1, its
// per-layer metrics) as the last line of standard output.
//
//	bash perfbench/run.sh --workload cold-suite --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// work is a private working directory inside the checkout's build
	// directory (state dirs of the fleet replicas); removed at exit.
	work string
}

// outcome accumulates what a workload measured and checked.
type outcome struct {
	e2e       *metrics
	layers    *metrics
	chk       *checker
	attempted int
	// failed counts requests that failed, were refused or were answered
	// wrongly; any fails the run. firstErr is the first transport or
	// refusal error, for the report.
	failed   int
	firstErr error
	// selfErrs are failed self-checks: a workload that did not exercise
	// what it claims to measure.
	selfErrs []string
	// info is recorded in the result file: rates, attempts, digests.
	info map[string]any
}

func (o *outcome) selfCheck(ok bool, format string, args ...any) {
	if !ok {
		o.selfErrs = append(o.selfErrs, fmt.Sprintf(format, args...))
	}
}

// requestFailed counts n modules of a request that failed or was refused.
func (o *outcome) requestFailed(n int, err error) {
	o.failed += n
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// recordCPU records the process CPU time of a measured phase per module
// answered correctly: the cost of a module to whoever runs the system. The
// gated metric is user time; kernel time, most of it the store's fsyncs on
// fleet-churn, is kept in the result file (see README.md).
func (o *outcome) recordCPU(cpu cpuClock, modules int) {
	n := float64(max(modules, 1))
	o.e2e.set("cpu_user_ms_per_module", "ms", ms(cpu.user)/n)
	o.e2e.set("cpu_sys_ms_per_module", "ms", ms(cpu.sys)/n)
}

// workloadFunc runs one workload's untraced measurement into o.
type workloadFunc func(cfg config, o *outcome) error

var workloadFuncs = map[string]workloadFunc{
	"cold-suite":  coldSuite,
	"warm-serve":  warmServe,
	"fleet-churn": fleetChurn,
}

// e2eNames are the end-to-end metrics of the result line with --trace 0, in
// BENCHMARK.json order: the ones steady enough on a shared two-core host to
// gate a change by. The wall-clock ones (suite_s, write_ms, modules_per_s,
// p50_ms, p99_ms) are measured too, printed on the lines before it and kept
// with their quartiles in the result file: other guests' load moved their
// run-to-run spread past any usable bound (see README.md).
var e2eNames = []string{"setup_s", "cpu_user_ms_per_module", "peak_rss_mb"}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload  = flag.String("workload", "", "workload: cold-suite, warm-serve or fleet-churn")
		seed      = flag.Int64("seed", 1, "seed for the workload's inputs")
		seconds   = flag.Int("seconds", 10, "length of the measured phase in seconds")
		trace     = flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
		root      = flag.String("root", ".", "checkout root; results go to <root>/.bench_build/results")
		summarize = flag.String("summarize", "", "print median and quartiles per workload and metric over the result files in this directory, then exit")
		probe     = flag.Bool("setup-probe", false, "print the time of this process's first NewService, then exit (used by cold-suite)")
	)
	flag.Parse()
	switch {
	case *probe:
		return setupProbe()
	case *summarize != "":
		if err := summarizeResults(*summarize); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wf, ok := workloadFuncs[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload cold-suite|warm-serve|fleet-churn, --seconds >= 1 and --trace 0|1")
		return 2
	}
	base, err := filepath.Abs(filepath.Join(*root, ".bench_build"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		work:     filepath.Join(base, "work", strconv.Itoa(os.Getpid())),
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)

	o := &outcome{e2e: newMetrics(), layers: newMetrics(), chk: newChecker(), info: map[string]any{}}
	steal0, total0 := hostCPU()
	if cfg.trace {
		err = traced(cfg, wf, o)
	} else {
		err = wf(cfg, o)
		o.e2e.set("peak_rss_mb", "MB", peakRSSMB())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	// The share of the host's CPU time other guests took during the run:
	// wall-time metrics of runs with a high share are not comparable.
	if steal1, total1 := hostCPU(); total1 > total0 {
		o.info["host_steal_pct"] = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	nbad, bad := o.chk.failures()
	for _, e := range bad {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", e)
	}
	for _, e := range o.selfErrs {
		fmt.Fprintln(os.Stderr, "perfbench: self-check failed:", e)
	}
	if o.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d modules failed or were refused; first error: %v\n", o.failed, o.attempted, o.firstErr)
	}
	correct := nbad == 0 && len(o.selfErrs) == 0 && o.failed == 0
	if o.attempted > 0 {
		o.e2e.set("failed_ratio", "ratio", float64(o.failed)/float64(o.attempted))
	}
	m, names := o.e2e, e2eNames
	if cfg.trace {
		m, names = o.layers, layerNames
	} else {
		printAll(cfg.workload, o.e2e)
	}
	out := map[string]any{}
	for _, n := range names {
		s, ok := m.vals[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", cfg.workload, n)
			return 1
		}
		out[n] = map[string]any{"value": s.Value, "unit": s.Unit}
	}
	if err := writeResult(base, cfg, o, m, correct); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing result file:", err)
		return 1
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   out,
	})
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// printAll prints every measured end-to-end metric, gated or not, one per
// line and sorted by name, ahead of the result line.
func printAll(workload string, m *metrics) {
	names := make([]string, 0, len(m.vals))
	for n := range m.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := m.vals[n]
		fmt.Printf("%s %-24s %14.6g %s\n", workload, n, s.Value, s.Unit)
	}
}

// writeResult records the run, its host and every metric's in-run median
// and quartiles under <base>/results.
func writeResult(base string, cfg config, o *outcome, m *metrics, correct bool) error {
	dir := filepath.Join(base, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := map[string]any{
		"workload":  cfg.workload,
		"seed":      cfg.seed,
		"seconds":   cfg.seconds.Seconds(),
		"trace":     cfg.trace,
		"host":      host(filepath.Dir(base)),
		"correct":   correct,
		"attempted": o.attempted,
		"failed":    o.failed,
		"digest":    o.chk.digest(),
		"info":      o.info,
		"metrics":   m.vals,
		"time":      time.Now().UTC().Format(time.RFC3339Nano),
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	mode := 0
	if cfg.trace {
		mode = 1
	}
	name := fmt.Sprintf("%s-trace%d-seed%d-%d.json", cfg.workload, mode, cfg.seed, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), raw, 0o644)
}
