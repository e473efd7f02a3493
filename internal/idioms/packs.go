package idioms

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/constraint"
	"repro/internal/idl"
	"repro/internal/similarity"
)

// TopSpec declares one idiom of a pack: the top-level constraint to compile
// plus its class, transform scheme and offload kind. It is the JSON element
// of POST /v1/idioms and the unit `idlc -pack` validates; the built-in
// library is compiled from the same declarations.
type TopSpec struct {
	// Name is the idiom name requests use; empty defaults to Top.
	Name string `json:"name,omitempty"`
	// Top is the top-level constraint in the pack's IDL source.
	Top string `json:"top"`
	// Class is the Table 1 class label ("Matrix Op.", "Parallel Map", ...);
	// empty means "Demo".
	Class string `json:"class,omitempty"`
	// Scheme selects the transform strategy ("gemm", "spmv", "reduction",
	// "loopbody1/2/3"); empty means the idiom detects but has no code
	// replacement.
	Scheme string `json:"scheme,omitempty"`
	// Kind is the hetero API kind used for offload estimates ("gemm",
	// "spmv", "reduction", "histogram", "stencil1/2/3", "map"); empty means
	// no backend estimate.
	Kind string `json:"kind,omitempty"`
}

// Pack is one compiled idiom pack — a tenant registration or the built-in
// library (Builtin): an immutable roster of idioms whose constraint problems
// were compiled (and solver-prepared) exactly once. Version is the
// registry-wide registration counter, reported on the wire as pack_version
// so a client can tell registrations apart; it is 0 outside a registry. It
// plays no part in memo keys: those are the problems' IDs, digests of the
// IDL source and top name.
type Pack struct {
	Name    string
	Version uint64
	// Source and Tops are the registration as received: the IDL source
	// text and the idiom declarations CompilePack compiled.
	Source string
	Tops   []TopSpec
	// Idioms is the pack roster in precedence order.
	Idioms []Idiom
	// Lines is the pack's non-empty IDL line count.
	Lines int

	problems map[string]*constraint.Problem   // by idiom name
	sigs     map[string]*similarity.Signature // by idiom name
}

// Problem returns the compiled constraint problem for an idiom name.
func (p *Pack) Problem(name string) (*constraint.Problem, bool) {
	prob, ok := p.problems[name]
	return prob, ok
}

// Signature returns the similarity signature compiled for an idiom name.
// Signatures live on the pack snapshot next to the compiled problems, so a
// re-registration replaces problems and signatures atomically: a roster
// resolved from an old snapshot keeps consistent (problem, signature) pairs,
// and nothing resolved from the new snapshot can see a stale signature.
func (p *Pack) Signature(name string) (*similarity.Signature, bool) {
	sg, ok := p.sigs[name]
	return sg, ok
}

// Idiom returns the pack's idiom of that name.
func (p *Pack) Idiom(name string) (Idiom, bool) {
	for _, idm := range p.Idioms {
		if idm.Name == name {
			return idm, true
		}
	}
	return Idiom{}, false
}

// ClassByName resolves a Table 1 class label ("Matrix Op.", "Stencil", ...)
// as rendered by Class.String.
func ClassByName(s string) (Class, bool) {
	for c := ClassScalarReduction; c <= ClassDemo; c++ {
		if c.String() == s {
			return c, true
		}
	}
	return 0, false
}

// validSchemes are the transform strategies a pack idiom may declare; they
// name the transformer's generic replacement paths (see transform.Apply).
var validSchemes = map[string]bool{
	"": true, "gemm": true, "spmv": true, "reduction": true,
	"loopbody1": true, "loopbody2": true, "loopbody3": true,
}

// CompilePack validates and compiles a pack without installing it anywhere:
// the IDL source is parsed once, every top-level constraint is resolved,
// flattened (constraint.Compile) and solver-prepared (constraint.Prepare),
// and the metadata is checked. `idlc -pack` and the server's POST /v1/idioms
// both call this — one code path, so CLI and HTTP report identical errors.
//
// version becomes the Pack's Version; stand-alone validation and the
// built-in pack pass 0. Memo entries follow the problems' source-digest IDs,
// not the version.
func CompilePack(name, idlSource string, tops []TopSpec, version uint64) (*Pack, error) {
	if name == "" {
		return nil, fmt.Errorf("idioms: pack name required")
	}
	if len(tops) == 0 {
		return nil, fmt.Errorf("idioms: pack %s declares no idioms", name)
	}
	prog, err := idl.ParseProgram(idlSource)
	if err != nil {
		return nil, fmt.Errorf("idioms: pack %s: %w", name, err)
	}
	pack := &Pack{
		Name:     name,
		Version:  version,
		Source:   idlSource,
		Tops:     append([]TopSpec(nil), tops...),
		Lines:    countLines(idlSource),
		problems: make(map[string]*constraint.Problem, len(tops)),
		sigs:     make(map[string]*similarity.Signature, len(tops)),
	}
	for _, spec := range tops {
		if spec.Top == "" {
			return nil, fmt.Errorf("idioms: pack %s: idiom with empty top constraint", name)
		}
		idm := Idiom{Name: spec.Name, Top: spec.Top, Class: ClassDemo,
			Scheme: spec.Scheme, Kind: spec.Kind}
		if idm.Name == "" {
			idm.Name = spec.Top
		}
		if _, dup := pack.problems[idm.Name]; dup {
			return nil, fmt.Errorf("idioms: pack %s: duplicate idiom %q", name, idm.Name)
		}
		if spec.Class != "" {
			c, ok := ClassByName(spec.Class)
			if !ok {
				return nil, fmt.Errorf("idioms: pack %s: idiom %s: unknown class %q", name, idm.Name, spec.Class)
			}
			idm.Class = c
		}
		if !validSchemes[spec.Scheme] {
			return nil, fmt.Errorf("idioms: pack %s: idiom %s: unknown transform scheme %q", name, idm.Name, spec.Scheme)
		}
		prob, err := constraint.Compile(prog, spec.Top, constraint.CompileOptions{})
		if err != nil {
			return nil, fmt.Errorf("idioms: pack %s: idiom %s: %w", name, idm.Name, err)
		}
		constraint.Prepare(prob)
		pack.problems[idm.Name] = prob
		pack.sigs[idm.Name] = similarity.Compile(idm.Name, prob)
		pack.Idioms = append(pack.Idioms, idm)
	}
	return pack, nil
}

// Registry is a versioned, copy-on-write store of idiom packs. Register
// compiles a pack once and atomically swaps it into a fresh snapshot map;
// readers (per-request roster resolution) load the snapshot pointer without
// locking, so an in-flight detection keeps solving against exactly the pack
// object it resolved — a concurrent re-registration can never tear its
// roster or swap its compiled problems out from under it.
type Registry struct {
	mu      sync.Mutex // serializes registrations and guards version
	version uint64
	limit   int
	packs   atomic.Pointer[map[string]*Pack]
}

// DefaultMaxPacks bounds a registry's distinct pack names. Every other
// intake path of a serving process is bounded (queue limit, body size, memo
// LRU); compiled packs are held for the process lifetime, so unbounded
// registration would grow memory without limit. Replacing an existing name
// never counts against the bound.
const DefaultMaxPacks = 64

// NewRegistry returns an empty pack registry bounded at DefaultMaxPacks
// distinct names.
func NewRegistry() *Registry {
	return NewRegistrySize(DefaultMaxPacks)
}

// NewRegistrySize returns an empty pack registry bounded at max distinct
// names; max <= 0 means unbounded.
func NewRegistrySize(max int) *Registry {
	r := &Registry{limit: max}
	m := map[string]*Pack{}
	r.packs.Store(&m)
	return r
}

// Register compiles and installs a pack under name, replacing any previous
// registration of that name. Each call — including a replacement — gets a
// fresh registry-wide version on the pack. Solve-memo keys do not include
// it: a replacement with new IDL compiles problems with new IDs, while one
// with identical source and tops keeps its IDs and reuses their cached
// solves. Registration failures install nothing.
func (r *Registry) Register(name, idlSource string, tops []TopSpec) (*Pack, error) {
	return r.Restore(name, idlSource, tops, 0)
}

// Restore installs a pack at the version an earlier process registered it
// under, as boot does from a state dir (0 takes the next version, as
// Register does), and moves the registration counter past it: a later
// registration never repeats a version clients have seen.
func (r *Registry) Restore(name, idlSource string, tops []TopSpec, version uint64) (*Pack, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, replacing := (*r.packs.Load())[name]; !replacing && r.limit > 0 && len(*r.packs.Load()) >= r.limit {
		return nil, fmt.Errorf("idioms: registry full (%d packs); replace an existing pack or raise the bound", r.limit)
	}
	if version == 0 {
		version = r.version + 1
	}
	pack, err := CompilePack(name, idlSource, tops, version)
	if err != nil {
		return nil, err
	}
	r.version = max(r.version, version)
	old := *r.packs.Load()
	next := make(map[string]*Pack, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = pack
	r.packs.Store(&next)
	return pack, nil
}

// Pack returns the current registration of name, if any. The returned pack
// is immutable: it stays valid (and self-consistent) even if a later
// Register replaces it in the registry.
func (r *Registry) Pack(name string) (*Pack, bool) {
	p, ok := (*r.packs.Load())[name]
	return p, ok
}

// Packs returns the current registrations sorted by name.
func (r *Registry) Packs() []*Pack {
	m := *r.packs.Load()
	out := make([]*Pack, 0, len(m))
	for _, p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
