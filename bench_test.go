// Package repro_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (run with `go test -bench=.`),
// plus ablation benchmarks for the solver and runtime design choices the
// paper evaluates (§4.4). Serving-path performance is measured by the
// repository benchmark, perfbench, not here:
//
//	BenchmarkTable1Detection     — idiom detection over all 21 benchmarks
//	BenchmarkTable2CompileTime   — per-benchmark compile + detect cost
//	BenchmarkTable3APIs          — full per-API performance sweep
//	BenchmarkFig16Classes        — per-benchmark idiom classes
//	BenchmarkFig17Coverage       — runtime coverage pipeline
//	BenchmarkFig18Speedup        — end-to-end speedups, best API per device
//	BenchmarkFig19Handwritten    — comparison against OpenMP/OpenCL models
//	BenchmarkAblation*           — solver and runtime design ablations
package repro_test

import (
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cc"
	"repro/internal/constraint"
	"repro/internal/detect"
	"repro/internal/experiments"
	"repro/internal/hetero"
	"repro/internal/idioms"
	"repro/internal/idl"
	"repro/internal/ir"
	"repro/internal/workloads"
)

// --- Table 1: detection over the full suite ---

// sequentialEngine builds the sequential reference engine: one worker and no
// memo, so every iteration times fresh constraint solves.
func sequentialEngine(b *testing.B, idms ...string) *detect.Engine {
	b.Helper()
	eng, err := detect.NewEngine(detect.Options{Idioms: idms, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

func BenchmarkTable1Detection(b *testing.B) {
	mods := compileAll(b)
	eng := sequentialEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, mod := range mods {
			res, err := eng.Module(mod)
			if err != nil {
				b.Fatal(err)
			}
			total += len(res.Instances)
		}
		if total != 60 {
			b.Fatalf("detected %d idioms, want 60", total)
		}
	}
}

// BenchmarkTable1PerBenchmark reports per-benchmark detection cost.
func BenchmarkTable1PerBenchmark(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			mod, err := w.Compile()
			if err != nil {
				b.Fatal(err)
			}
			eng := sequentialEngine(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Module(mod); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 2: compile-time cost without and with IDL ---

func BenchmarkTable2CompileTime(b *testing.B) {
	b.Run("withoutIDL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, w := range workloads.All() {
				if _, err := cc.Compile(w.Name, w.Source); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("withIDL", func(b *testing.B) {
		eng := sequentialEngine(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, w := range workloads.All() {
				mod, err := cc.Compile(w.Name, w.Source)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Module(mod); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// --- Table 3 / Figures 18, 19: the performance pipeline ---

func BenchmarkTable3APIs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Performance(1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 10 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkFig18Speedup(b *testing.B) {
	rows, err := experiments.Performance(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bars := experiments.Fig18(rows)
		if len(bars) == 0 {
			b.Fatal("no bars")
		}
	}
}

func BenchmarkFig19Handwritten(b *testing.B) {
	rows, err := experiments.Performance(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig19(rows)) != 10 {
			b.Fatal("rows")
		}
	}
}

// --- Figures 16, 17 ---

func BenchmarkFig16Classes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig16(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig17(1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 21 {
			b.Fatal("rows")
		}
	}
}

// --- Per-idiom solver benchmarks ---

func BenchmarkSolver(b *testing.B) {
	cases := []struct {
		idiom, bench string
	}{
		{"Reduction", "UA"},
		{"Histogram", "histo"},
		{"SPMV", "CG"},
		{"GEMM", "sgemm"},
		{"Stencil3", "stencil"},
	}
	for _, c := range cases {
		c := c
		b.Run(c.idiom, func(b *testing.B) {
			mod, err := workloads.ByName(c.bench).Compile()
			if err != nil {
				b.Fatal(err)
			}
			eng := sequentialEngine(b, c.idiom)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Module(mod); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation 1 (§4.4): variable ordering impacts solver pruning ---

func BenchmarkAblationVariableOrdering(b *testing.B) {
	prog, err := idl.ParseProgram(idioms.LibrarySource)
	if err != nil {
		b.Fatal(err)
	}
	mod, err := workloads.ByName("CG").Compile()
	if err != nil {
		b.Fatal(err)
	}
	for _, ord := range []struct {
		name string
		o    constraint.Ordering
	}{
		{"greedy", constraint.OrderGreedy},
		{"appearance", constraint.OrderAppearance},
	} {
		ord := ord
		b.Run(ord.name, func(b *testing.B) {
			problem, err := constraint.Compile(prog, "SPMV", constraint.CompileOptions{Ordering: ord.o})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			steps := 0
			for i := 0; i < b.N; i++ {
				for _, fn := range mod.Functions {
					solver := constraint.NewSolver(problem, analysis.Analyze(fn))
					solver.Solve()
					steps += solver.Steps
				}
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// --- Ablation 2: atom-indexed candidate generation vs naive enumeration ---

func BenchmarkAblationCandidateGeneration(b *testing.B) {
	prog, err := idl.ParseProgram(idioms.LibrarySource)
	if err != nil {
		b.Fatal(err)
	}
	problem, err := constraint.Compile(prog, "Reduction", constraint.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	mod, err := workloads.ByName("UA").Compile()
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		naive bool
	}{
		{"indexed", false},
		{"naive", true},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			steps := 0
			for i := 0; i < b.N; i++ {
				for _, fn := range mod.Functions {
					solver := constraint.NewSolver(problem, analysis.Analyze(fn))
					solver.NaiveCandidates = mode.naive
					solver.Solve()
					steps += solver.Steps
				}
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// --- Ablation 3: the lazy-copy transfer optimization (the red bars) ---

func BenchmarkAblationLazyCopy(b *testing.B) {
	br, err := experiments.Pipeline(workloads.ByName("CG"), 1)
	if err != nil {
		b.Fatal(err)
	}
	gpu := hetero.DeviceByKind(hetero.GPU)
	api := hetero.APIByName("cusparse")
	for _, mode := range []struct {
		name string
		lazy bool
	}{
		{"lazy", true},
		{"eager", false},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				t, err := hetero.Estimate(br.RunCost, gpu, api,
					hetero.TimingOptions{LazyCopy: mode.lazy, WorkScale: experiments.ModelWorkScale})
				if err != nil {
					b.Fatal(err)
				}
				total = t
			}
			b.ReportMetric(total*1000, "modelled-ms")
		})
	}
}

// --- Ablation 4: API choice per platform (try-all vs fixed mapping) ---

func BenchmarkAblationAPIChoice(b *testing.B) {
	br, err := experiments.Pipeline(workloads.ByName("sgemm"), 1)
	if err != nil {
		b.Fatal(err)
	}
	opts := hetero.TimingOptions{WorkScale: experiments.ModelWorkScale}
	b.Run("try-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, dev := range hetero.Devices() {
				if _, ok := hetero.BestOnDevice(br.RunCost, dev, opts); !ok {
					b.Fatal("no API")
				}
			}
		}
	})
	b.Run("fixed-lift", func(b *testing.B) {
		lift := hetero.APIByName("lift")
		for i := 0; i < b.N; i++ {
			for _, dev := range hetero.Devices() {
				if _, err := hetero.Estimate(br.RunCost, dev, lift, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// --- End-to-end pipeline benchmark ---

func BenchmarkEndToEndPipeline(b *testing.B) {
	for _, name := range []string{"CG", "sgemm", "stencil"} {
		name := name
		b.Run(name, func(b *testing.B) {
			w := workloads.ByName(name)
			for i := 0; i < b.N; i++ {
				br, err := experiments.Pipeline(w, 1)
				if err != nil {
					b.Fatal(err)
				}
				if br.Mismatch != "" {
					b.Fatal(br.Mismatch)
				}
			}
		})
	}
}

// --- helpers ---

// compileAll compiles every workload concurrently (the sequential compile
// barrier is gone here too; benchmark setup cost shrinks with cores).
func compileAll(b *testing.B) []*ir.Module {
	b.Helper()
	ws := workloads.All()
	out := make([]*ir.Module, len(ws))
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		i, w := i, w
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = w.Compile()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			b.Fatalf("%s: %v", ws[i].Name, err)
		}
	}
	return out
}
