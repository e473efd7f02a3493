package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/idiomatic"
	"repro/internal/idioms"
	"repro/internal/workloads"
)

// table1 is the paper's Table 1, per benchmark and idiom class. It is the
// correctness reference for every builtin-roster answer, copied from the
// paper rather than read from the code under test; main refuses to run if
// the repository's workload table disagrees with it.
var table1 = map[string]map[string]int{
	"BT":      {"Scalar Reduction": 4},
	"CG":      {"Scalar Reduction": 7, "Sparse Matrix Op.": 2},
	"DC":      {"Scalar Reduction": 1},
	"EP":      {"Scalar Reduction": 1, "Histogram Reduction": 1},
	"FT":      {"Scalar Reduction": 2},
	"IS":      {"Scalar Reduction": 1, "Histogram Reduction": 1},
	"LU":      {"Scalar Reduction": 6},
	"MG":      {"Scalar Reduction": 1, "Stencil": 2},
	"SP":      {"Scalar Reduction": 3},
	"UA":      {"Scalar Reduction": 10},
	"bfs":     {"Scalar Reduction": 1},
	"cutcp":   {"Scalar Reduction": 1},
	"histo":   {"Scalar Reduction": 1, "Histogram Reduction": 1},
	"lbm":     {"Stencil": 3},
	"mri-g":   {"Scalar Reduction": 1, "Histogram Reduction": 1},
	"mri-q":   {"Scalar Reduction": 2},
	"sad":     {"Scalar Reduction": 2},
	"sgemm":   {"Matrix Op.": 1},
	"spmv":    {"Sparse Matrix Op.": 1},
	"stencil": {"Stencil": 1},
	"tpacf":   {"Scalar Reduction": 1, "Histogram Reduction": 1},
}

// table1Total is Table 1's bottom line.
const table1Total = 60

// packName is the small pack the fleet-churn writer re-registers: the
// built-in IDL library exposing only its Histogram and Reduction tops.
const packName = "bench"

var packTops = []idiomatic.TopSpec{
	{Name: "Histogram", Top: "Histogram", Class: "Histogram Reduction", Scheme: "loopbody1", Kind: "histogram"},
	{Name: "Reduction", Top: "Reduction", Class: "Scalar Reduction", Scheme: "reduction", Kind: "reduction"},
}

// module is one benchmark input: a workload's name and C source.
type module struct {
	Name   string
	Source string
}

// suite returns the paper's 21 workloads in the repository's order, after
// checking that their expected counts are Table 1's.
func suite() ([]module, error) {
	var out []module
	total := 0
	for _, w := range workloads.All() {
		want, ok := table1[w.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s is not in Table 1", w.Name)
		}
		got := map[string]int{}
		for c, n := range w.Expected {
			got[c.String()] += n
			total += n
		}
		if !sameCounts(got, want) {
			return nil, fmt.Errorf("workload %s expects %v, Table 1 says %v", w.Name, got, want)
		}
		out = append(out, module{Name: w.Name, Source: w.Source})
	}
	if len(out) != len(table1) || total != table1Total {
		return nil, fmt.Errorf("suite has %d workloads and %d idioms, Table 1 has %d and %d",
			len(out), total, len(table1), table1Total)
	}
	return out, nil
}

func sameCounts(a, b map[string]int) bool {
	for k, v := range a {
		if v != 0 && b[k] != v {
			return false
		}
	}
	for k, v := range b {
		if v != 0 && a[k] != v {
			return false
		}
	}
	return true
}

// expected returns the reference class counts of one module: Table 1, or
// for requests pinned to the bench pack, Table 1 restricted to the classes
// of the pack's roster.
func expected(name string, pinned bool) map[string]int {
	if !pinned {
		return table1[name]
	}
	out := map[string]int{}
	for _, t := range packTops {
		out[t.Class] = table1[name][t.Class]
	}
	return out
}

// permuted returns the suite in an order drawn from rng.
func permuted(mods []module, rng *rand.Rand) []module {
	out := make([]module, len(mods))
	for i, j := range rng.Perm(len(mods)) {
		out[i] = mods[j]
	}
	return out
}

// matchRequests turns modules into /v1/match requests, optionally pinned
// to the bench pack.
func matchRequests(mods []module, pinned bool) []idiomatic.MatchRequest {
	out := make([]idiomatic.MatchRequest, len(mods))
	for i, m := range mods {
		out[i] = idiomatic.MatchRequest{Name: m.Name, Source: m.Source}
		if pinned {
			out[i].Pack = packName
		}
	}
	return out
}

// wireAnswer is the part of a MatchResult the checker reads.
type wireAnswer struct {
	Name     string `json:"name"`
	Err      string `json:"error"`
	Findings []struct {
		Class string `json:"class"`
	} `json:"findings"`
	Plans []struct {
		Err string `json:"error"`
	} `json:"plans"`
}

// volatileFields are the wire fields that legitimately differ between two
// answers to the same module: timing, the service-wide memo gauges, the
// position in the batch, and the registry version of a pinned pack.
var volatileFields = []string{"elapsed_ns", "memo", "seq", "pack_version"}

// checker validates answers against Table 1 and holds, per module and
// roster, the canonical wire bytes of the first answer, so every later
// answer — from another pass, path or replica — must be byte-identical.
type checker struct {
	mu    sync.Mutex
	canon map[string][]byte
	errs  []string
	nbad  int
}

func newChecker() *checker { return &checker{canon: map[string][]byte{}} }

// check validates one raw MatchResult. It returns false, and records why,
// when the answer is wrong.
func (c *checker) check(raw []byte, pinned bool) bool {
	if err := c.verify(raw, pinned); err != nil {
		c.mu.Lock()
		c.nbad++
		if len(c.errs) < 8 {
			c.errs = append(c.errs, err.Error())
		}
		c.mu.Unlock()
		return false
	}
	return true
}

func (c *checker) verify(raw []byte, pinned bool) error {
	var a wireAnswer
	if err := json.Unmarshal(raw, &a); err != nil {
		return fmt.Errorf("undecodable answer: %v", err)
	}
	if a.Err != "" {
		return fmt.Errorf("%s: error %q", a.Name, a.Err)
	}
	got := map[string]int{}
	for _, f := range a.Findings {
		got[f.Class]++
	}
	if want := expected(a.Name, pinned); want == nil || !sameCounts(got, want) {
		return fmt.Errorf("%s (pinned=%v): findings %v, want %v", a.Name, pinned, got, want)
	}
	if len(a.Plans) != len(a.Findings) {
		return fmt.Errorf("%s: %d plans for %d findings", a.Name, len(a.Plans), len(a.Findings))
	}
	for _, p := range a.Plans {
		if p.Err != "" {
			return fmt.Errorf("%s: plan error %q", a.Name, p.Err)
		}
	}
	canon, err := canonical(raw)
	if err != nil {
		return err
	}
	key := fmt.Sprintf("%v/%s", pinned, a.Name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if ref, ok := c.canon[key]; !ok {
		c.canon[key] = canon
	} else if !bytes.Equal(ref, canon) {
		return fmt.Errorf("%s (pinned=%v): wire bytes differ from the first answer", a.Name, pinned)
	}
	return nil
}

// canonical strips the volatile fields and re-encodes with sorted keys.
func canonical(raw []byte) ([]byte, error) {
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	for _, f := range volatileFields {
		delete(m, f)
	}
	return json.Marshal(m)
}

// digest fingerprints every canonical answer seen, so result files of
// different runs and workloads can be compared for byte identity.
func (c *checker) digest() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.canon))
	for k := range c.canon {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write(c.canon[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func (c *checker) failures() (int, []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nbad, append([]string(nil), c.errs...)
}

// checkLocal validates an in-process result.
func (c *checker) checkLocal(r idiomatic.MatchResult, pinned bool) bool {
	raw, err := json.Marshal(r)
	if err != nil {
		return c.check([]byte("{}"), pinned)
	}
	return c.check(raw, pinned)
}

// packSource is the bench pack's IDL: the built-in library.
func packSource() string { return idioms.LibrarySource }
