package detect

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/constraint"
	"repro/internal/idioms"
	"repro/internal/ir"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/suite.golden.json")

// suiteGoldenPath pins the suite's answers site by site: for every workload,
// every finding (function, idiom, bindings as instruction positions) and the
// sequential solver's step counts for every (function × idiom) solve.
const suiteGoldenPath = "testdata/suite.golden.json"

type goldenWorkload struct {
	Name      string           `json:"name"`
	Findings  []goldenFinding  `json:"findings"`
	Functions []goldenFunction `json:"functions"`
}

type goldenFinding struct {
	Function string `json:"function"`
	Idiom    string `json:"idiom"`
	// Bindings are "name=value", sorted by name. Instructions render as
	// "i<N>", their position in the function's block-order instruction list;
	// arguments as "arg<N>".
	Bindings []string `json:"bindings"`
}

type goldenFunction struct {
	Name string `json:"name"`
	// Steps is the backtracking step count of each idiom's solve, in roster
	// order.
	Steps []goldenSteps `json:"steps"`
}

type goldenSteps struct {
	Idiom string `json:"idiom"`
	Steps int    `json:"steps"`
	// First is the step count at which the search finds its first solution
	// (omitted when it finds none). A complete enumeration visits the same
	// tree whatever order it tries candidates in, so Steps alone cannot see a
	// reordered search; First can.
	First int `json:"first,omitempty"`
}

// goldenValue renders one bound value position-wise, so the golden does not
// depend on SSA register naming.
func goldenValue(v ir.Value, info *analysis.Info) string {
	switch t := v.(type) {
	case *ir.Instruction:
		return fmt.Sprintf("i%d", info.Index[t])
	case *ir.Argument:
		return fmt.Sprintf("arg%d", t.Index)
	}
	if v == constraint.Unconstrained {
		return "_"
	}
	return v.Operand()
}

// suiteGolden runs the sequential driver's per-function path (analyse, solve
// every roster idiom, serial merge) over the 21 workloads, recording each
// solve's steps on the way.
func suiteGolden(t *testing.T) []goldenWorkload {
	t.Helper()
	ros := roster(Options{})
	probs := make([]*constraint.Problem, len(ros))
	for i, idm := range ros {
		prob, err := idioms.Problem(idm.Top)
		if err != nil {
			t.Fatalf("%s: %v", idm.Name, err)
		}
		probs[i] = prob
	}
	var out []goldenWorkload
	for _, w := range workloads.All() {
		mod, err := w.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", w.Name, err)
		}
		gw := goldenWorkload{Name: w.Name, Findings: []goldenFinding{}}
		for _, fn := range mod.Functions {
			info := analysis.Analyze(fn)
			per := make([]idiomSolutions, len(ros))
			gf := goldenFunction{Name: fn.Ident}
			for i, idm := range ros {
				per[i] = solveIdiom(nil, idm, probs[i], info)
				gs := goldenSteps{Idiom: idm.Name, Steps: per[i].steps}
				if len(per[i].sols) > 0 {
					first := constraint.NewSolver(probs[i], info)
					first.Limit = 1
					first.Solve()
					gs.First = first.Steps
				}
				gf.Steps = append(gf.Steps, gs)
			}
			gw.Functions = append(gw.Functions, gf)
			res := &Result{}
			merge(fn, per, res)
			for _, inst := range res.Instances {
				f := goldenFinding{Function: fn.Ident, Idiom: inst.Idiom.Name}
				for name, v := range inst.Solution {
					f.Bindings = append(f.Bindings, name+"="+goldenValue(v, info))
				}
				sort.Strings(f.Bindings)
				gw.Findings = append(gw.Findings, f)
			}
		}
		out = append(out, gw)
	}
	return out
}

// TestSuiteGolden pins the suite's findings and per-solve step counts
// against a committed golden. Byte identity between the detection paths does
// not catch a change that moves every path the same way; this does.
// Regenerate with `go test ./internal/detect -run TestSuiteGolden -update`
// only when a change to detection output is intended.
func TestSuiteGolden(t *testing.T) {
	got, err := json.MarshalIndent(suiteGolden(t), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(suiteGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(suiteGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(suiteGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var gotW, wantW []goldenWorkload
	if err := json.Unmarshal(want, &wantW); err != nil {
		t.Fatalf("golden is not valid JSON: %v", err)
	}
	_ = json.Unmarshal(got, &gotW)
	if len(gotW) != len(wantW) {
		t.Fatalf("suite has %d workloads, golden has %d", len(gotW), len(wantW))
	}
	for i := range gotW {
		g, _ := json.Marshal(gotW[i])
		w, _ := json.Marshal(wantW[i])
		if !bytes.Equal(g, w) {
			t.Errorf("workload %s differs from %s:\n got: %s\nwant: %s", wantW[i].Name, suiteGoldenPath, g, w)
		}
	}
}
