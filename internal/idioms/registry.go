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
	// for this idiom ("gemm", "spmv", "reduction", "loopbody1/2/3"). It is
	// the only dispatch of claiming and transformation; empty means the
	// idiom detects but has no code replacement.
	Scheme string
	// Kind is the heterogeneous API kind the idiom offloads as (the key of
	// hetero.APIProfile efficiencies: "gemm", "spmv", "reduction",
	// "histogram", "stencil1/2/3", "map"). Empty means the idiom carries no
	// offload model and match results report no backend estimates for it.
	Kind string
	// Extension marks idioms beyond the paper's evaluated set — its §9
	// future work. A roster resolved without names leaves them out, so they
	// are detected only when named and the Table 1 reproduction is
	// unaffected. Tenant pack idioms are never extensions.
	Extension bool
}

// library is the built-in idiom table in precedence order: the paper's
// idiom set, reproducing its Table 1 classes, then the extensions. Builtin
// compiles it as a pack, exactly as a tenant's TopSpecs are compiled.
var library = []Idiom{
	{Name: "GEMM", Top: "GEMM", Class: ClassMatrixOp, Scheme: "gemm", Kind: "gemm"},
	{Name: "SPMV", Top: "SPMV", Class: ClassSparseMatrixOp, Scheme: "spmv", Kind: "spmv"},
	{Name: "Stencil3", Top: "Stencil3", Class: ClassStencil, Scheme: "loopbody3", Kind: "stencil3"},
	{Name: "Stencil2", Top: "Stencil2", Class: ClassStencil, Scheme: "loopbody2", Kind: "stencil2"},
	{Name: "Stencil1", Top: "Stencil1", Class: ClassStencil, Scheme: "loopbody1", Kind: "stencil1"},
	{Name: "Histogram", Top: "Histogram", Class: ClassHistogram, Scheme: "loopbody1", Kind: "histogram"},
	{Name: "Reduction", Top: "Reduction", Class: ClassScalarReduction, Scheme: "reduction", Kind: "reduction"},
	{Name: "Map", Top: "Map", Class: ClassMap, Scheme: "loopbody1", Kind: "map", Extension: true},
}

// All returns the paper's evaluated idioms in precedence order: the
// built-in table without its extensions.
func All() []Idiom {
	var out []Idiom
	for _, idm := range library {
		if !idm.Extension {
			out = append(out, idm)
		}
	}
	return out
}

var (
	parseLibrary = sync.OnceValues(func() (*idl.Program, error) {
		return idl.ParseProgram(LibrarySource)
	})
	builtin = sync.OnceValues(func() (*Pack, error) {
		tops := make([]TopSpec, len(library))
		for i, idm := range library {
			tops[i] = TopSpec{Name: idm.Name, Top: idm.Top, Class: idm.Class.String(),
				Scheme: idm.Scheme, Kind: idm.Kind}
		}
		p, err := CompilePack("builtin", LibrarySource, tops, 0)
		if err != nil {
			return nil, err
		}
		for i := range p.Idioms {
			p.Idioms[i].Extension = library[i].Extension
		}
		return p, nil
	})
)

// Library parses the embedded IDL library once and returns it.
func Library() (*idl.Program, error) { return parseLibrary() }

// Builtin returns the built-in idiom library compiled once as a pack,
// through the same CompilePack path tenant packs take: one compile and one
// solver preparation per idiom for the process lifetime, so every roster
// resolved from it shares the same problems (and their static indexes).
func Builtin() (*Pack, error) { return builtin() }

// Problem returns the built-in pack's compiled problem for a top-level
// idiom constraint.
func Problem(top string) (*constraint.Problem, error) {
	p, err := Builtin()
	if err != nil {
		return nil, err
	}
	for _, idm := range p.Idioms {
		if idm.Top == top {
			prob, _ := p.Problem(idm.Name)
			return prob, nil
		}
	}
	return nil, fmt.Errorf("idioms: no built-in idiom has top constraint %q", top)
}

// Problems returns the built-in pack's compiled problems for a roster of
// built-in idioms, keyed by idiom name.
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
