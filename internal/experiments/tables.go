package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/cc"
	"repro/internal/detect"
	"repro/internal/idioms"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/workloads"
)

var (
	pipeOnce sync.Once
	pipe     *pipeline.Pipeline
	pipeErr  error
)

// sharedPipeline returns the long-lived streaming compile→detect pipeline
// shared by Table 1, Figure 16 and the end-to-end Pipeline driver: idiom
// constraint problems compile once per process, each admitted workload
// compiles on its own goroutine, and solves stream through one engine whose
// memo cache makes repeated detection of identical function shapes an O(1)
// lookup. Results are byte-identical to sequential detect.Module (see
// detect's determinism tests), so the tables and figures are unaffected.
func sharedPipeline() (*pipeline.Pipeline, error) {
	pipeOnce.Do(func() {
		pipe, pipeErr = pipeline.New(pipeline.Options{})
	})
	return pipe, pipeErr
}

// DetectionStats reports the shared pipeline engine's solver memoization
// counters (hits, misses) — zero if no experiment has run yet.
func DetectionStats() (memoHits, memoMisses int64) {
	if pipe == nil {
		return 0, 0
	}
	return pipe.Engine().MemoStats()
}

// Table1Data holds the detection comparison (paper Table 1).
type Table1Data struct {
	// Per class: Scalar Reduction, Histogram, Stencil, Matrix Op, Sparse.
	Polly, ICC, IDL map[idioms.Class]int
}

// Table1 runs IDL detection plus both baseline models over all benchmarks.
func Table1() (*Table1Data, error) {
	d := &Table1Data{
		Polly: map[idioms.Class]int{},
		ICC:   map[idioms.Class]int{},
		IDL:   map[idioms.Class]int{},
	}
	p, err := sharedPipeline()
	if err != nil {
		return nil, err
	}
	// Stream every workload through the shared pipeline: each admitted
	// module compiles on its own goroutine and its solves begin the moment
	// it lands, with no batch barrier. Awaiting jobs in submit order keeps
	// the table deterministic.
	var jobs []*pipeline.Job
	for _, w := range workloads.All() {
		job, err := p.SubmitOpts(w.Name, w.Compile, pipeline.SubmitOptions{})
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		res, err := job.Wait()
		if err != nil {
			return nil, err
		}
		for c, n := range res.CountByClass() {
			d.IDL[c] += n
		}
		pr := baseline.Polly(job.Mod)
		d.Polly[idioms.ClassScalarReduction] += pr.Counts.ScalarReductions
		d.Polly[idioms.ClassStencil] += pr.Counts.Stencils
		ic := baseline.ICC(job.Mod)
		d.ICC[idioms.ClassScalarReduction] += ic.Counts.ScalarReductions
		d.ICC[idioms.ClassStencil] += ic.Counts.Stencils
	}
	return d, nil
}

// Render formats the Table 1 artifact.
func (d *Table1Data) Render() string {
	classes := []idioms.Class{
		idioms.ClassScalarReduction, idioms.ClassHistogram,
		idioms.ClassStencil, idioms.ClassMatrixOp, idioms.ClassSparseMatrixOp,
	}
	t := report.NewTable("Table 1: idioms detected by IDL, ICC, Polly",
		"", "Scalar Reduction", "Histogram Reduction", "Stencil", "Matrix Op.", "Sparse Matrix Op.")
	row := func(name string, m map[idioms.Class]int) {
		cells := []string{name}
		for _, c := range classes {
			if m[c] == 0 {
				cells = append(cells, "-")
			} else {
				cells = append(cells, fmt.Sprintf("%d", m[c]))
			}
		}
		t.AddRow(cells...)
	}
	row("Polly", d.Polly)
	row("ICC", d.ICC)
	row("IDL", d.IDL)
	return t.String()
}

// Table2Row is one benchmark's compile-time measurement.
type Table2Row struct {
	Name        string
	Without     time.Duration // frontend + passes only
	With        time.Duration // plus IDL constraint solving
	OverheadPct float64
	SolverSteps int
}

// Table2Data holds all compile-time rows (paper Table 2).
type Table2Data struct {
	Rows []Table2Row
}

// Table2 measures per-benchmark compilation cost without and with idiom
// detection. Detection runs through an engine pinned to one worker with
// solver memoization off, so the overhead metric keeps the paper's
// sequential fresh-solve meaning on any host; IDL constraint problems are
// still compiled once per process (the cache the paper's numbers do not
// enjoy), so the rows isolate the constraint-solving cost itself.
func Table2() (*Table2Data, error) {
	e, err := detect.NewEngine(detect.Options{Workers: 1, NoMemo: true})
	if err != nil {
		return nil, err
	}
	d := &Table2Data{}
	for _, w := range workloads.All() {
		start := time.Now()
		mod, err := cc.Compile(w.Name, w.Source)
		if err != nil {
			return nil, err
		}
		without := time.Since(start)

		start = time.Now()
		mod2, err := cc.Compile(w.Name, w.Source)
		if err != nil {
			return nil, err
		}
		res, err := e.Module(mod2)
		if err != nil {
			return nil, err
		}
		with := time.Since(start)
		_ = mod

		if with < without {
			with = without
		}
		d.Rows = append(d.Rows, Table2Row{
			Name:        w.Name,
			Without:     without,
			With:        with,
			OverheadPct: 100 * (float64(with)/float64(without) - 1),
			SolverSteps: res.SolverSteps,
		})
	}
	return d, nil
}

// MeanOverheadPct is the average relative cost of enabling IDL (the paper
// reports 82% on its benchmarks).
func (d *Table2Data) MeanOverheadPct() float64 {
	if len(d.Rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range d.Rows {
		sum += r.OverheadPct
	}
	return sum / float64(len(d.Rows))
}

// Render formats the Table 2 artifact.
func (d *Table2Data) Render() string {
	t := report.NewTable("Table 2: compile time cost",
		"benchmark", "without IDL (ms)", "with IDL (ms)", "overhead %", "solver steps")
	for _, r := range d.Rows {
		t.AddRow(r.Name,
			fmt.Sprintf("%.2f", float64(r.Without.Microseconds())/1000),
			fmt.Sprintf("%.2f", float64(r.With.Microseconds())/1000),
			fmt.Sprintf("%.0f", r.OverheadPct),
			fmt.Sprintf("%d", r.SolverSteps))
	}
	t.AddRow("mean", "", "", fmt.Sprintf("%.0f", d.MeanOverheadPct()), "")
	return t.String()
}
