package idioms

import (
	"fmt"
	"sync"

	"repro/internal/constraint"
	"repro/internal/idl"
)

// Class categorizes idioms the way the paper's Table 1 does.
type Class int

// Idiom classes.
const (
	ClassScalarReduction Class = iota
	ClassHistogram
	ClassStencil
	ClassMatrixOp
	ClassSparseMatrixOp
	ClassMap
	ClassDemo
)

// String renders the class like the paper's table headers.
func (c Class) String() string {
	switch c {
	case ClassScalarReduction:
		return "Scalar Reduction"
	case ClassHistogram:
		return "Histogram Reduction"
	case ClassStencil:
		return "Stencil"
	case ClassMatrixOp:
		return "Matrix Op."
	case ClassSparseMatrixOp:
		return "Sparse Matrix Op."
	case ClassMap:
		return "Parallel Map"
	default:
		return "Demo"
	}
}

// Idiom describes one detectable idiom: its top-level IDL constraint and its
// class. Precedence is the order idioms are tried; more specific idioms come
// first so the detection driver can claim instructions before general ones.
type Idiom struct {
	Name  string
	Top   string // top-level constraint name in the library
	Class Class
	// Scheme names the code-replacement strategy the transform phase uses
	// for this idiom ("gemm", "spmv", "reduction", "loopbody1/2/3"). Empty
	// means the transformer's built-in per-name dispatch (the paper's
	// evaluated idioms); pack-registered idioms set it explicitly.
	Scheme string
	// Kind is the heterogeneous API kind the idiom offloads as (the key of
	// hetero.APIProfile efficiencies: "gemm", "spmv", "reduction",
	// "histogram", "stencil1/2/3", "map"). Empty means the idiom carries no
	// offload model and match results report no backend estimates for it.
	Kind string
}

// All returns the detection idioms in precedence order — the paper's idiom
// set, reproducing its Table 1 classes.
func All() []Idiom {
	return []Idiom{
		{Name: "GEMM", Top: "GEMM", Class: ClassMatrixOp, Kind: "gemm"},
		{Name: "SPMV", Top: "SPMV", Class: ClassSparseMatrixOp, Kind: "spmv"},
		{Name: "Stencil3", Top: "Stencil3", Class: ClassStencil, Kind: "stencil3"},
		{Name: "Stencil2", Top: "Stencil2", Class: ClassStencil, Kind: "stencil2"},
		{Name: "Stencil1", Top: "Stencil1", Class: ClassStencil, Kind: "stencil1"},
		{Name: "Histogram", Top: "Histogram", Class: ClassHistogram, Kind: "histogram"},
		{Name: "Reduction", Top: "Reduction", Class: ClassScalarReduction, Kind: "reduction"},
	}
}

// Extensions returns idioms beyond the paper's evaluated set — its §9
// future work. They are only detected when requested by name, so the
// Table 1 reproduction is unaffected.
func Extensions() []Idiom {
	return []Idiom{
		{Name: "Map", Top: "Map", Class: ClassMap, Kind: "map"},
	}
}

// ByName finds an idiom in the core set or the extensions.
func ByName(name string) (Idiom, bool) {
	for _, i := range All() {
		if i.Name == name {
			return i, true
		}
	}
	for _, i := range Extensions() {
		if i.Name == name {
			return i, true
		}
	}
	return Idiom{}, false
}

var (
	libOnce sync.Once
	libProg *idl.Program
	libErr  error

	probMu    sync.RWMutex
	probCache = map[string]*constraint.Problem{}
)

// Library parses the embedded IDL library once and returns it.
func Library() (*idl.Program, error) {
	libOnce.Do(func() {
		libProg, libErr = idl.ParseProgram(LibrarySource)
	})
	return libProg, libErr
}

// Problem compiles (and caches) the flattened constraint problem for a
// top-level idiom name. Every caller of the same name shares one *Problem,
// so downstream per-problem caches (the solver's static index) hit too. The
// fast path is a read lock: detection workers resolve problems concurrently.
func Problem(top string) (*constraint.Problem, error) {
	probMu.RLock()
	p, ok := probCache[top]
	probMu.RUnlock()
	if ok {
		return p, nil
	}
	probMu.Lock()
	defer probMu.Unlock()
	if p, ok := probCache[top]; ok {
		return p, nil
	}
	prog, err := Library()
	if err != nil {
		return nil, err
	}
	p, err = constraint.Compile(prog, top, constraint.CompileOptions{})
	if err != nil {
		return nil, fmt.Errorf("idioms: compiling %s: %w", top, err)
	}
	probCache[top] = p
	return p, nil
}

// Problems precompiles the constraint problems for a whole idiom roster,
// returning them keyed by idiom name. detect.NewEngine calls this once at
// construction so no compilation happens on the solving hot path.
func Problems(roster []Idiom) (map[string]*constraint.Problem, error) {
	out := make(map[string]*constraint.Problem, len(roster))
	for _, idm := range roster {
		p, err := Problem(idm.Top)
		if err != nil {
			return nil, err
		}
		out[idm.Name] = p
	}
	return out, nil
}

// LibraryLineCount reports the number of non-empty IDL lines — the paper
// quotes ≈500 lines for the complete idiom set.
func LibraryLineCount() int { return countLines(LibrarySource) }

// countLines counts non-empty lines of an IDL source text.
func countLines(src string) int {
	n := 0
	start := 0
	for i := 0; i <= len(src); i++ {
		if i == len(src) || src[i] == '\n' {
			line := src[start:i]
			start = i + 1
			for _, c := range line {
				if c != ' ' && c != '\t' {
					n++
					break
				}
			}
		}
	}
	return n
}
