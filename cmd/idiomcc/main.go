// Command idiomcc is the end-to-end compiler of the paper's Figure 1: it
// compiles C files to SSA IR, detects computational idioms with the IDL
// library, optionally replaces them with heterogeneous API calls, and
// prints the resulting IR and the call listing.
//
// It is a thin CLI over idiomatic.Service — the same front door cmd/idiomd
// serves over HTTP. Multiple input files stream through the service's one
// worker pool: compilation and constraint solving overlap across files, and
// each file's report prints as soon as its detection lands (completion
// order).
//
// Usage:
//
//	idiomcc file.c                 # compile + detect, report instances
//	idiomcc a.c b.c c.c            # stream many files, report as they land
//	idiomcc -emit-ir file.c        # also dump the SSA IR
//	idiomcc -transform file.c      # apply the code replacement
//	idiomcc -transform -target GPU file.c
//	                               # profile-driven backend selection: pick
//	                               # the best API per idiom on the device
//	                               # (-target best ranks all three devices)
//	idiomcc -idioms SPMV,GEMM ...  # restrict the idiom set
//	idiomcc -j 8 file.c ...        # worker count (0 = GOMAXPROCS)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/idiomatic"
)

func main() {
	emitIR := flag.Bool("emit-ir", false, "print the SSA IR")
	doTransform := flag.Bool("transform", false, "replace detected idioms with API calls")
	target := flag.String("target", "", "profile-driven backend selection for -transform: CPU, iGPU, GPU, or best (empty = the paper's fixed backend mapping)")
	idiomList := flag.String("idioms", "", "comma-separated idiom subset (default: all)")
	jobs := flag.Int("j", 0, "compile/detection worker count (0 = GOMAXPROCS)")
	flag.Parse()

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: idiomcc [flags] file.c [file2.c ...]")
		os.Exit(2)
	}

	svc, err := idiomatic.NewService(idiomatic.ServiceOptions{
		Workers: *jobs,
		// The CLI's batch is its whole workload; never shed it.
		QueueLimit: -1,
	})
	if err != nil {
		fatal(err)
	}
	defer svc.Close()
	var idms []string
	if *idiomList != "" {
		idms = strings.Split(*idiomList, ",")
	}

	ctx := context.Background()
	done := make(chan *idiomatic.Task)
	submitted := 0
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "idiomcc:", err)
			continue
		}
		task, err := svc.Submit(ctx, idiomatic.DetectRequest{
			Name: path, Source: string(src), Idioms: idms,
		})
		if err != nil {
			fatal(err)
		}
		submitted++
		go func() {
			<-task.Done()
			done <- task
		}()
	}

	failed := submitted != flag.NArg()
	for i := 0; i < submitted; i++ {
		task := <-done
		if err := task.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "idiomcc: %s: %v\n", task.Req.Name, err)
			failed = true
			continue
		}
		if err := report(svc, task, *doTransform, *target, *emitIR); err != nil {
			fatal(err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// report prints one file's detection outcome (and applies the optional
// transformation) exactly as the single-file CLI always has.
func report(svc *idiomatic.Service, task *idiomatic.Task, doTransform bool, target string, emitIR bool) error {
	det, prog := task.Detection(), task.Program()
	fmt.Printf("%s: %d idiom instance(s), %d solver steps, %v\n",
		task.Req.Name, len(det.Instances), det.SolverSteps, det.Elapsed)
	for _, inst := range det.Instances {
		fmt.Printf("  %-10s (%s) in %s\n", inst.Idiom, inst.Class, inst.Function)
	}

	switch {
	case doTransform && target != "":
		// Profile-driven backend selection (the /v1/match pipeline): pick
		// the best API per idiom on the target device, or across all three
		// with -target best.
		if target == "best" {
			target = ""
		}
		plans, err := svc.Plan(context.Background(), prog, det, target)
		if err != nil {
			return err
		}
		for _, plan := range plans {
			if plan.Err != "" {
				fmt.Printf("  !! %s in %s: %s\n", plan.Idiom, plan.Function, plan.Err)
				continue
			}
			fmt.Printf("  -> %s on %s (backend %s)\n", plan.Rendering, plan.Device, plan.Backend)
			if plan.Unsound {
				fmt.Printf("     (aliasing not statically provable; paper §6.3)\n")
			}
			for _, chk := range plan.RuntimeChecks {
				fmt.Printf("     runtime check: %s\n", chk)
			}
		}
	case doTransform:
		calls, err := svc.Accelerate(context.Background(), prog, det)
		if err != nil {
			return err
		}
		for _, call := range calls {
			fmt.Printf("  -> %s\n", call.Rendering)
			if call.Unsound {
				fmt.Printf("     (aliasing not statically provable; paper §6.3)\n")
			}
			for _, chk := range call.RuntimeChecks {
				fmt.Printf("     runtime check: %s\n", chk)
			}
		}
	}

	if emitIR {
		fmt.Println()
		fmt.Print(prog.IR())
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "idiomcc:", err)
	os.Exit(1)
}
