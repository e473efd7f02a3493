// Command experiments regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	experiments [table1|table2|table3|fig16|fig17|fig18|fig19|all] [-scale N]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	scale := flag.Int("scale", experiments.DefaultScale, "input scale for performance experiments")
	stats := flag.Bool("stats", false, "print the shared detection stream's memo statistics to stderr")
	flag.Parse()

	what := "all"
	if flag.NArg() > 0 {
		what = flag.Arg(0)
	}

	run := func(name string, f func() error) {
		if what != "all" && what != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("table1", func() error {
		d, err := experiments.Table1()
		if err != nil {
			return err
		}
		fmt.Println(d.Render())
		return nil
	})
	run("table2", func() error {
		d, err := experiments.Table2()
		if err != nil {
			return err
		}
		fmt.Println(d.Render())
		return nil
	})
	run("fig16", func() error {
		d, err := experiments.Fig16()
		if err != nil {
			return err
		}
		fmt.Println(d.Render())
		return nil
	})
	run("fig17", func() error {
		rows, err := experiments.Fig17(*scale)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig17(rows))
		return nil
	})

	needPerf := what == "all" || what == "table3" || what == "fig18" || what == "fig19"
	if needPerf {
		rows, err := experiments.Performance(*scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "performance: %v\n", err)
			os.Exit(1)
		}
		if what == "all" || what == "table3" {
			fmt.Println(experiments.RenderTable3(rows))
		}
		if what == "all" || what == "fig18" {
			fmt.Println(experiments.RenderFig18(rows))
		}
		if what == "all" || what == "fig19" {
			fmt.Println(experiments.RenderFig19(rows))
		}
	}

	if *stats {
		hits, misses := experiments.DetectionStats()
		rate := 0.0
		if hits+misses > 0 {
			rate = float64(hits) / float64(hits+misses)
		}
		fmt.Fprintf(os.Stderr, "detection memo: %d hits, %d fresh solves (%.1f%% hit rate)\n",
			hits, misses, 100*rate)
	}
}
