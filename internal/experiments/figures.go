package experiments

import (
	"fmt"

	"repro/internal/idioms"
	"repro/internal/report"
	"repro/internal/workloads"
)

// Fig16Data maps benchmark -> class name -> count (paper Figure 16).
type Fig16Data struct {
	Order  []string
	Counts map[string]map[string]int
}

// Fig16 tallies detected idioms per benchmark and class. Every benchmark
// streams through the shared detection stream; results come back in
// workload order so the chart stays deterministic.
func Fig16() (*Fig16Data, error) {
	ws := workloads.All()
	results, err := detectAll(ws)
	if err != nil {
		return nil, err
	}
	d := &Fig16Data{Counts: map[string]map[string]int{}}
	for _, w := range ws {
		d.Order = append(d.Order, w.Name)
	}
	for i, res := range results {
		m := map[string]int{}
		for c, n := range res.CountByClass() {
			m[c.String()] = n
		}
		d.Counts[d.Order[i]] = m
	}
	return d, nil
}

// Render formats the stacked chart.
func (d *Fig16Data) Render() string {
	classes := []string{
		idioms.ClassScalarReduction.String(), idioms.ClassHistogram.String(),
		idioms.ClassStencil.String(), idioms.ClassMatrixOp.String(),
		idioms.ClassSparseMatrixOp.String(),
	}
	letters := []byte{'R', 'H', 'S', 'M', 'P'}
	return report.Stacked("Figure 16: computational idioms per benchmark", d.Order, classes, letters, d.Counts)
}

// Fig17Row is one benchmark's runtime coverage.
type Fig17Row struct {
	Name     string
	Coverage float64
}

// Fig17 measures the share of sequential runtime inside detected idioms.
func Fig17(scale int) ([]Fig17Row, error) {
	var out []Fig17Row
	for _, w := range workloads.All() {
		br, err := Pipeline(w, scale)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig17Row{Name: w.Name, Coverage: br.Coverage()})
	}
	return out, nil
}

// RenderFig17 formats the coverage chart.
func RenderFig17(rows []Fig17Row) string {
	chart := report.NewBarChart("Figure 17: runtime coverage of detected idioms (%)", 50)
	for _, r := range rows {
		chart.Add(r.Name, r.Coverage*100, fmt.Sprintf("%.0f%%", r.Coverage*100))
	}
	return chart.String()
}
