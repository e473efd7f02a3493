package constraint

import (
	"slices"
	"strings"
	"sync"

	"repro/internal/idl"
	"repro/internal/ir"
)

// A problem is lowered once, at Prepare, to a slot form, as the paper
// compiles each specification to search code ahead of time (§4.4). Every
// name a solve can bind gets a dense slot in the problem's symbol table: the
// regular variables first (slot k is Vars[k]), then the names collect bodies
// and varlists mention, then each collect instance's names when that
// instance is first produced. The partial assignment is a []ir.Value indexed
// by slot (nil = unbound), and every atom refers to slots with its opcode,
// type and class already resolved. Names reappear only at the package
// boundary, in Solution.

// symtab numbers the names of one problem. The problem's index, its collect
// sub-indexes and all of its solvers share it, concurrently. Names are only
// ever appended, under mu; a reader copies a slice header under mu and may
// then read that prefix of it freely.
type symtab struct {
	mu       sync.Mutex
	slots    map[string]int // name -> slot
	names    []string       // slot -> name
	prefixes map[string]int // varlist array prefix ("read[") -> prefix id
	byPrefix [][]int        // prefix id -> slots whose name extends the prefix
	collects int            // collect ids handed out (lowering is single-threaded)
}

// extends reports whether name is an element of the array prefix names.
func extends(name, prefix string) bool {
	return len(name) > len(prefix) && strings.HasPrefix(name, prefix)
}

// intern returns name's slot, adding it to the table on first use.
func (t *symtab) intern(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	slot, ok := t.slots[name]
	if !ok {
		slot = len(t.names)
		t.slots[name], t.names = slot, append(t.names, name)
		for p, id := range t.prefixes {
			if extends(name, p) {
				t.byPrefix[id] = append(t.byPrefix[id], slot)
			}
		}
	}
	return slot
}

// name returns the table's string for the name b spells, or a new string
// when the table does not hold it (or t is nil).
func (t *symtab) name(b []byte) string {
	if t != nil {
		t.mu.Lock()
		defer t.mu.Unlock()
		if slot, ok := t.slots[string(b)]; ok {
			return t.names[slot]
		}
	}
	return string(b)
}

// prefixID registers a varlist array prefix and returns its id.
func (t *symtab) prefixID(prefix string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.prefixes[prefix]
	if !ok {
		id = len(t.byPrefix)
		t.prefixes[prefix], t.byPrefix = id, append(t.byPrefix, nil)
		for slot, name := range t.names {
			if extends(name, prefix) {
				t.byPrefix[id] = append(t.byPrefix[id], slot)
			}
		}
	}
	return id
}

// list returns the names known so far, by slot.
func (t *symtab) list() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.names
}

// extending returns the slots known so far whose names extend prefix id.
func (t *symtab) extending(id int) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byPrefix[id]
}

type nodeKind uint8

const (
	kNone nodeKind = iota
	kAnd
	kOr
	kAtom
	kCollect
)

// lnode is one formula node in slot form.
type lnode struct {
	kind  nodeKind
	kids  []int
	atom  *atom
	coll  *collect
	slots []int // names the node itself mentions: atom arguments and varlist names, collect body variables
}

// collect is an NCollect lowered for resolution: its prototype instance (the
// body at index 0) in slot form, plus caches every solver of the problem
// fills on demand and shares.
type collect struct {
	*NCollect
	id        int
	proto     []lnode // nil when the body does not flatten
	protoVars []int   // body variables in appearance order, then outer names its varlists mention
	nBody     int     // protoVars[:nBody] are the body's own variables, positional across instances

	mu    sync.Mutex
	subs  []*probIndex // sub-problem index per set of free variables
	insts []instance   // instance j's names as slots
}

type instance struct {
	slots []int // positional to protoVars[:nBody]
	ok    bool  // false when the instance fails to flatten or to line up with the prototype
}

// probIndex is a (sub-)problem in slot form: the lowered formula plus, for
// its variables, the static structure that keeps node values current as the
// search binds them. Each node knows its parent and the variables occurring
// in its subtree, and each variable the atoms that name it. It is built
// once, shared by all solvers, and owned by its Problem (or collect).
type probIndex struct {
	syms     *symtab
	nodes    []lnode  // id -> node; the root is 0
	vars     []int    // var id -> slot, in solving order
	varOf    []int    // slot -> var id, -1 for a name that is not a variable here
	varIn    [][]bool // node id -> var id -> mentioned in the subtree
	parent   []int    // node id -> parent id, -1 for the root
	varAtoms [][]int  // var id -> ids of the atoms whose arguments name it, in pre-order

	// states holds evalStates sized for nodes, so that searches of the
	// problem reuse their node values and trails.
	states sync.Pool
}

// index returns the problem's slot form, lowering it on first use. Solvers
// for the same problem are routinely constructed from many goroutines; only
// the first pays the build. The index lives on the Problem, so it is freed
// with it.
func (p *Problem) index() *probIndex {
	p.idxOnce.Do(func() {
		syms := &symtab{slots: map[string]int{}, prefixes: map[string]int{}}
		vars := make([]int, len(p.Vars))
		for i, v := range p.Vars {
			vars[i] = syms.intern(v)
		}
		p.idx = newIndex(syms, syms.lower(p.Root), vars)
	})
	return p.idx
}

// Prepare eagerly lowers a problem, collect bodies included, so that no
// solver pays the build. It is idempotent and safe to call from multiple
// goroutines.
func Prepare(p *Problem) {
	p.index()
}

// lower numbers a formula's nodes in pre-order and resolves its names to
// slots, lowering collect prototypes recursively.
func (t *symtab) lower(root Node) []lnode {
	var nodes []lnode
	var walk func(n Node) int
	walk = func(n Node) int {
		id := len(nodes)
		nodes = append(nodes, lnode{})
		var ln lnode
		var kids []Node
		switch x := n.(type) {
		case *NAnd:
			ln.kind, kids = kAnd, x.Kids
		case *NOr:
			ln.kind, kids = kOr, x.Kids
		case *NAtom:
			ln.kind, ln.atom = kAtom, t.lowerAtom(x)
			ln.slots = slices.Clone(ln.atom.args)
			for _, list := range ln.atom.lists {
				for _, r := range list {
					ln.slots = append(ln.slots, r.slot)
				}
			}
		case *NCollect:
			ln.kind, ln.coll = kCollect, t.lowerCollect(x)
			ln.slots = ln.coll.protoVars
		}
		for _, k := range kids {
			kid := walk(k)
			ln.kids = append(ln.kids, kid)
		}
		nodes[id] = ln
		return id
	}
	walk(root)
	return nodes
}

func (t *symtab) lowerCollect(c *NCollect) *collect {
	lc := &collect{NCollect: c, id: t.collects}
	t.collects++
	proto, err := c.Instantiate(0)
	if err != nil {
		return lc
	}
	var names []string
	seen := map[string]bool{}
	collectVars(proto, seen, &names)
	lc.nBody = len(names)
	// List references inside the body can also name outer variables.
	for _, at := range gatherAtoms(proto) {
		for _, list := range at.Lists {
			for _, r := range list {
				if !seen[r.Name] {
					seen[r.Name] = true
					names = append(names, r.Name)
				}
			}
		}
	}
	for _, n := range names {
		lc.protoVars = append(lc.protoVars, t.intern(n))
	}
	lc.proto = t.lower(proto)
	return lc
}

func newIndex(syms *symtab, nodes []lnode, vars []int) *probIndex {
	idx := &probIndex{syms: syms, nodes: nodes, vars: vars,
		varOf: make([]int, len(syms.list())), varIn: make([][]bool, len(nodes)),
		parent: make([]int, len(nodes)), varAtoms: make([][]int, len(vars))}
	idx.states.New = func() any { return &evalState{nodes: make([]nodeState, len(nodes))} }
	for slot := range idx.varOf {
		idx.varOf[slot] = -1
	}
	for vid, slot := range vars {
		idx.varOf[slot] = vid
	}
	// Pre-order numbering puts every kid after its parent.
	for id := len(nodes) - 1; id >= 0; id-- {
		mask := make([]bool, len(vars))
		for _, slot := range nodes[id].slots {
			if vid := idx.varOf[slot]; vid >= 0 {
				mask[vid] = true
			}
		}
		for _, kid := range nodes[id].kids {
			idx.parent[kid] = id
			for vid, in := range idx.varIn[kid] {
				mask[vid] = mask[vid] || in
			}
		}
		idx.varIn[id] = mask
	}
	idx.parent[0] = -1
	for id, n := range nodes {
		if n.kind != kAtom {
			continue
		}
		for _, slot := range n.atom.args {
			vid := idx.varOf[slot]
			if vid < 0 {
				continue
			}
			if l := idx.varAtoms[vid]; len(l) == 0 || l[len(l)-1] != id {
				idx.varAtoms[vid] = append(l, id)
			}
		}
	}
	return idx
}

// subIndex returns the index of the collect body's sub-problem whose
// variables are the body names unbound in assign.
func (c *collect) subIndex(syms *symtab, assign []ir.Value) *probIndex {
	var free []int
	for _, slot := range c.protoVars {
		if slotValue(assign, slot) == nil {
			free = append(free, slot)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sub := range c.subs {
		if slices.Equal(sub.vars, free) {
			return sub
		}
	}
	sub := newIndex(syms, c.proto, free)
	c.subs = append(c.subs, sub)
	return sub
}

// instance returns the slots of instance j's body variables, flattening the
// instance on first use.
func (c *collect) instance(syms *symtab, j int) instance {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.insts) <= j {
		var inst instance
		if n, err := c.Instantiate(len(c.insts)); err == nil {
			var names []string
			collectVars(n, map[string]bool{}, &names)
			if inst.ok = len(names) == c.nBody; inst.ok {
				for _, name := range names {
					inst.slots = append(inst.slots, syms.intern(name))
				}
			}
		}
		c.insts = append(c.insts, inst)
	}
	return c.insts[j]
}

// opcodes maps IDL opcode spellings to IR opcodes.
var opcodes = map[string]ir.Opcode{
	"store": ir.OpStore, "load": ir.OpLoad, "return": ir.OpRet, "branch": ir.OpBr,
	"add": ir.OpAdd, "sub": ir.OpSub, "mul": ir.OpMul, "sdiv": ir.OpSDiv, "srem": ir.OpSRem,
	"fadd": ir.OpFAdd, "fsub": ir.OpFSub, "fmul": ir.OpFMul, "fdiv": ir.OpFDiv,
	"select": ir.OpSelect, "gep": ir.OpGEP, "icmp": ir.OpICmp, "fcmp": ir.OpFCmp, "phi": ir.OpPhi,
	"sext": ir.OpSExt, "zext": ir.OpZExt, "trunc": ir.OpTrunc, "sitofp": ir.OpSIToFP,
	"fptosi": ir.OpFPToSI, "fpext": ir.OpFPExt, "fptrunc": ir.OpFPTrunc,
	"call": ir.OpCall, "alloca": ir.OpAlloca,
}

// OpcodeByName maps an IDL opcode spelling ("store", "fmul", "branch", ...)
// to its IR opcode. Signature derivation in the similarity scorer uses it
// to turn `is <opcode> instruction` atoms into histogram requirements.
func OpcodeByName(name string) (ir.Opcode, bool) {
	op, ok := opcodes[name]
	return op, ok
}

// The type and class spellings atoms resolve to indices at lowering.
var (
	typeNames  = []string{"integer", "float", "pointer"}
	classNames = []string{"constant", "argument", "instruction", "compiletime", "unused"}
)

const (
	typeInteger = iota
	typeFloat
	typePointer
)

const (
	classConstant = iota
	classArgument
	classInstruction
	classCompiletime
	classUnused
)

// atom is an NAtom over slots, with its opcode, type and class resolved.
type atom struct {
	*NAtom
	args  []int
	lists [][]listRef
	op    ir.Opcode // OpcodeIs and NoOpcodeBelow; OpInvalid for an unknown spelling
	class int       // index into classNames (ClassIs) or typeNames (TypeIs)
}

// listRef is a varlist member: the slot of its name, bound directly, and the
// prefix its name expands to as an array (name[k]...) when it is not.
type listRef struct{ slot, prefix int }

func (t *symtab) lowerAtom(n *NAtom) *atom {
	a := &atom{NAtom: n, op: opcodes[n.Opcode]}
	for _, name := range n.Args {
		a.args = append(a.args, t.intern(name))
	}
	for _, list := range n.Lists {
		refs := make([]listRef, len(list))
		for i, r := range list {
			refs[i] = listRef{t.intern(r.Name), t.prefixID(r.Name + "[")}
		}
		a.lists = append(a.lists, refs)
	}
	switch n.Kind {
	case idl.AtomTypeIs:
		a.class = spelling(typeNames, n.TypeName)
	case idl.AtomClassIs:
		a.class = spelling(classNames, n.ClassName)
	}
	return a
}

// spelling returns name's index in names, or len(names) when it is unknown.
func spelling(names []string, name string) int {
	if i := slices.Index(names, name); i >= 0 {
		return i
	}
	return len(names)
}
