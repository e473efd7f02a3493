package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// resultFile is the part of a result file the summary reads.
type resultFile struct {
	Workload string             `json:"workload"`
	Trace    bool               `json:"trace"`
	Seed     int64              `json:"seed"`
	Correct  bool               `json:"correct"`
	Digest   string             `json:"digest"`
	Host     hostInfo           `json:"host"`
	Info     map[string]any     `json:"info"`
	Metrics  map[string]summary `json:"metrics"`
}

// summarizeResults prints, per workload and mode, each metric's median and
// quartiles over the runs recorded in dir, the quartile spread as a share
// of the median, the number of rejected open-loop attempts, how much CPU
// the host gave to other guests, and whether the runs agree on their
// answers' digest.
func summarizeResults(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	groups := map[string][]resultFile{}
	var keys []string
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var r resultFile
		if err := json.Unmarshal(raw, &r); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		k := fmt.Sprintf("%s trace=%v", r.Workload, r.Trace)
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], r)
	}
	sort.Strings(keys)
	for _, k := range keys {
		runs := groups[k]
		h := runs[0].Host
		fmt.Printf("%s: %d runs; nproc %d, GOMAXPROCS %d, %d physical cores, %s, %s, commit %s\n",
			k, len(runs), h.Nproc, h.GOMAXPROCS, h.PhysicalCores, h.CPUModel, h.GoVersion, h.Commit)
		digests := map[string]bool{}
		rejected, wrong := 0.0, 0
		var seeds []string
		var steal []float64
		for _, r := range runs {
			digests[r.Digest] = true
			if v, ok := r.Info["rejected_runs"].(float64); ok {
				rejected += v
			}
			if v, ok := r.Info["host_steal_pct"].(float64); ok {
				steal = append(steal, v)
			}
			if !r.Correct {
				wrong++
			}
			seeds = append(seeds, fmt.Sprint(r.Seed))
		}
		fmt.Printf("  seeds %s; incorrect runs %d; rejected open-loop attempts %.0f; distinct answer digests %d\n",
			strings.Join(seeds, ","), wrong, rejected, len(digests))
		if len(steal) > 0 {
			fmt.Printf("  host steal %% of CPU time per run: median %.1f, max %.1f\n", median(steal), quantile(steal, 1))
		}
		names := map[string]bool{}
		for _, r := range runs {
			for n := range r.Metrics {
				names[n] = true
			}
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, n := range sorted {
			var vals []float64
			unit := ""
			for _, r := range runs {
				if s, ok := r.Metrics[n]; ok {
					vals = append(vals, s.Value)
					unit = s.Unit
				}
			}
			q1, med, q3 := quartilesExclusive(vals)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Printf("  %-36s %12.4f %-6s q1 %12.4f q3 %12.4f spread %6.3f n %d\n", n, med, unit, q1, q3, spread, len(vals))
		}
	}
	return nil
}
