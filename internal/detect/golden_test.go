package detect

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/constraint"
	"repro/internal/idioms"
	"repro/internal/ir"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden.json detection goldens")

// suiteGoldenPath pins the suite's answers site by site: for every workload,
// every finding (function, idiom, bindings as instruction positions) and the
// sequential solver's step counts for every (function × idiom) solve.
const suiteGoldenPath = "testdata/suite.golden.json"

// packGoldenPaths pin the same per-site answers for rosters outside the
// paper's seven idioms: the built-in Map extension idiom and the AXPY tenant
// pack of examples/customidiom.
const (
	mapGoldenPath  = "testdata/map.golden.json"
	axpyGoldenPath = "testdata/axpy.golden.json"
)

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
// solve's steps on the way. Extra workloads follow the suite's 21.
func suiteGolden(t *testing.T, ros []Resolved, extra ...*workloads.Workload) []goldenWorkload {
	t.Helper()
	var out []goldenWorkload
	for _, w := range append(workloads.All(), extra...) {
		mod, err := w.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", w.Name, err)
		}
		gw := goldenWorkload{Name: w.Name, Findings: []goldenFinding{}}
		for _, fn := range mod.Functions {
			info := analysis.Analyze(fn)
			per := make([]idiomSolutions, len(ros))
			gf := goldenFunction{Name: fn.Ident}
			for i, r := range ros {
				per[i] = solveIdiom(nil, r.Idiom, r.Prob, info)
				gs := goldenSteps{Idiom: r.Idiom.Name, Steps: per[i].steps}
				if len(per[i].sols) > 0 {
					first := constraint.NewSolver(r.Prob, info)
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
// Regenerate with `go test ./internal/detect -run Golden -update` only when a
// change to detection output is intended.
func TestSuiteGolden(t *testing.T) {
	ros, err := Resolve(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, suiteGoldenPath, suiteGolden(t, ros))
}

// TestMapGolden pins the built-in Map extension idiom over the suite; the
// default roster never solves it.
func TestMapGolden(t *testing.T) {
	ros, err := Resolve(nil, []string{"Map"})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, mapGoldenPath, suiteGolden(t, ros))
}

// TestAXPYGolden pins a tenant pack over the suite: the AXPY pack that
// examples/customidiom registers, compiled from that example's own IDL. The
// suite holds no AXPY loop, so the example's legacy module follows it as a
// 22nd workload and pins a finding with its bindings.
func TestAXPYGolden(t *testing.T) {
	example, err := os.ReadFile("../../examples/customidiom/main.go")
	if err != nil {
		t.Fatal(err)
	}
	constant := func(name string) string {
		_, src, ok := strings.Cut(string(example), "const "+name+" = `")
		src, _, _ = strings.Cut(src, "`")
		if !ok || src == "" {
			t.Fatalf("examples/customidiom no longer declares %s", name)
		}
		return src
	}
	pack, err := idioms.CompilePack("blas1", constant("axpyIDL"), []idioms.TopSpec{{
		Top: "AXPY", Class: "Parallel Map", Scheme: "loopbody1", Kind: "map",
	}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ros, err := Resolve(pack, nil)
	if err != nil {
		t.Fatal(err)
	}
	legacy := &workloads.Workload{Name: "customidiom", Source: constant("source")}
	checkGolden(t, axpyGoldenPath, suiteGolden(t, ros, legacy))
}

// checkGolden compares one roster's suite answers with its committed golden,
// or rewrites the golden under -update.
func checkGolden(t *testing.T, path string, ws []goldenWorkload) {
	t.Helper()
	got, err := json.MarshalIndent(ws, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
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
			t.Errorf("workload %s differs from %s:\n got: %s\nwant: %s", wantW[i].Name, path, g, w)
		}
	}
}
