package idl

import (
	"crypto/sha256"
	"fmt"
)

// ParseProgram parses a sequence of "Constraint <name> ... End" blocks and
// records the SHA-256 of src as the program's Digest.
func ParseProgram(src string) (*Program, error) {
	toks, err := lexIDL(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := NewProgram()
	for !p.at(tEOF) {
		spec, err := p.spec()
		if err != nil {
			return nil, err
		}
		if err := prog.Add(spec); err != nil {
			return nil, err
		}
	}
	prog.Digest = sha256.Sum256([]byte(src))
	return prog, nil
}

// ParseConstraint parses a single specification.
func ParseConstraint(src string) (*Spec, error) {
	prog, err := ParseProgram(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Order) != 1 {
		return nil, fmt.Errorf("idl: expected exactly one constraint, found %d", len(prog.Order))
	}
	return prog.Specs[prog.Order[0]], nil
}

type parser struct {
	toks []tok
	pos  int
}

func (p *parser) cur() tok  { return p.toks[p.pos] }
func (p *parser) next() tok { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(k tkind) bool { return p.cur().kind == k }

func (p *parser) atWord(w string) bool {
	return p.cur().kind == tWord && p.cur().text == w
}

func (p *parser) atPunct(s string) bool {
	return p.cur().kind == tPunct && p.cur().text == s
}

func (p *parser) acceptWord(w string) bool {
	if p.atWord(w) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptPunct(s string) bool {
	if p.atPunct(s) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectWord(w string) error {
	if !p.acceptWord(w) {
		return p.errf("expected %q, found %s", w, p.cur())
	}
	return nil
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errf("expected %q, found %s", s, p.cur())
	}
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("idl: %d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

func (p *parser) spec() (*Spec, error) {
	if err := p.expectWord("Constraint"); err != nil {
		return nil, err
	}
	if !p.at(tWord) {
		return nil, p.errf("expected constraint name, found %s", p.cur())
	}
	name := p.next().text
	body, err := p.constraint()
	if err != nil {
		return nil, err
	}
	if err := p.expectWord("End"); err != nil {
		return nil, err
	}
	return &Spec{Name: name, Body: body}, nil
}

// constraint parses one constraint plus any postfix modifiers (for-all/
// for-some/for, with-rename, at-rebase).
func (p *parser) constraint() (Constraint, error) {
	base, err := p.basicConstraint()
	if err != nil {
		return nil, err
	}
	return p.postfix(base)
}

// postfix applies trailing modifiers to a parsed constraint.
func (p *parser) postfix(base Constraint) (Constraint, error) {
	for {
		switch {
		case p.atWord("for"):
			p.pos++
			switch {
			case p.acceptWord("all"), p.atWord("some"):
				some := p.acceptWord("some")
				if !p.at(tWord) {
					return nil, p.errf("expected index name after for all/some")
				}
				idx := p.next().text
				if err := p.expectPunct("="); err != nil {
					return nil, err
				}
				from, err := p.calc()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(".."); err != nil {
					return nil, err
				}
				to, err := p.calc()
				if err != nil {
					return nil, err
				}
				if some {
					base = &ForSome{Idx: idx, From: from, To: to, Body: base}
				} else {
					base = &ForAll{Idx: idx, From: from, To: to, Body: base}
				}
			default:
				if !p.at(tWord) {
					return nil, p.errf("expected index name after for")
				}
				idx := p.next().text
				if err := p.expectPunct("="); err != nil {
					return nil, err
				}
				val, err := p.calc()
				if err != nil {
					return nil, err
				}
				base = &ForOne{Idx: idx, Val: val, Body: base}
			}
		case p.atWord("with"):
			p.pos++
			pairs, err := p.renamePairs()
			if err != nil {
				return nil, err
			}
			if p.acceptWord("at") {
				at, err := p.varRef()
				if err != nil {
					return nil, err
				}
				base = &Rebase{Base: base, Pairs: pairs, At: at}
			} else {
				base = &Rename{Base: base, Pairs: pairs}
			}
		case p.atWord("at"):
			p.pos++
			at, err := p.varRef()
			if err != nil {
				return nil, err
			}
			base = &Rebase{Base: base, At: at}
		default:
			return base, nil
		}
	}
}

// renamePairs parses "{outer} as {inner} [and {outer} as {inner}]*" where
// the trailing "and" is disambiguated from a conjunction separator by
// looking for "{var} as".
func (p *parser) renamePairs() ([]RenamePair, error) {
	var pairs []RenamePair
	for {
		outer, err := p.varRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectWord("as"); err != nil {
			return nil, err
		}
		inner, err := p.varRef()
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, RenamePair{Outer: outer, Inner: inner})
		// Another pair only if: "and" "{...}" "as"
		if !p.atWord("and") {
			return pairs, nil
		}
		save := p.pos
		p.pos++ // and
		if !p.atPunct("{") {
			p.pos = save
			return pairs, nil
		}
		if _, err := p.varRef(); err != nil {
			p.pos = save
			return pairs, nil
		}
		if !p.atWord("as") {
			p.pos = save
			return pairs, nil
		}
		p.pos = save + 1 // consume just the "and", re-parse the pair
	}
}

func (p *parser) basicConstraint() (Constraint, error) {
	switch {
	case p.atPunct("("):
		p.pos++
		first, err := p.constraint()
		if err != nil {
			return nil, err
		}
		switch {
		case p.atWord("and"):
			list := []Constraint{first}
			for p.acceptWord("and") {
				c, err := p.constraint()
				if err != nil {
					return nil, err
				}
				list = append(list, c)
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &And{List: list}, nil
		case p.atWord("or"):
			list := []Constraint{first}
			for p.acceptWord("or") {
				c, err := p.constraint()
				if err != nil {
					return nil, err
				}
				list = append(list, c)
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &Or{List: list}, nil
		default:
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return first, nil
		}

	case p.atWord("inherits"):
		p.pos++
		if !p.at(tWord) {
			return nil, p.errf("expected constraint name after inherits")
		}
		inh := &Inherit{Name: p.next().text}
		if p.acceptPunct("(") {
			for !p.atPunct(")") {
				if len(inh.Args) > 0 {
					if err := p.expectPunct(","); err != nil {
						return nil, err
					}
				}
				if !p.at(tWord) {
					return nil, p.errf("expected parameter name")
				}
				name := p.next().text
				if err := p.expectPunct("="); err != nil {
					return nil, err
				}
				c, err := p.calc()
				if err != nil {
					return nil, err
				}
				inh.Args = append(inh.Args, InheritArg{Name: name, Calc: c})
			}
			p.pos++ // ')'
		}
		return inh, nil

	case p.atWord("collect"):
		p.pos++
		if !p.at(tWord) {
			return nil, p.errf("expected index name after collect")
		}
		idx := p.next().text
		max := 0
		if p.at(tNum) {
			max = p.next().num
		}
		body, err := p.constraint()
		if err != nil {
			return nil, err
		}
		return &Collect{Idx: idx, Max: max, Body: body}, nil

	case p.atWord("if"):
		p.pos++
		l, err := p.calc()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		r, err := p.calc()
		if err != nil {
			return nil, err
		}
		if err := p.expectWord("then"); err != nil {
			return nil, err
		}
		then, err := p.constraint()
		if err != nil {
			return nil, err
		}
		if err := p.expectWord("else"); err != nil {
			return nil, err
		}
		els, err := p.constraint()
		if err != nil {
			return nil, err
		}
		if err := p.expectWord("endif"); err != nil {
			return nil, err
		}
		return &If{L: l, R: r, Then: then, Else: els}, nil

	case p.atWord("all"):
		return p.allAtomic()

	case p.atWord("no"):
		// no <opcode> instruction below {v}
		p.pos++
		if !p.at(tWord) {
			return nil, p.errf("expected opcode after 'no'")
		}
		a := &Atomic{Kind: AtomNoOpcodeBelow, Opcode: p.next().text}
		if err := p.expectWord("instruction"); err != nil {
			return nil, err
		}
		if err := p.expectWord("below"); err != nil {
			return nil, err
		}
		v, err := p.varRef()
		if err != nil {
			return nil, err
		}
		a.Vars = []Var{v}
		return a, nil

	case p.atPunct("{"):
		return p.varAtomic()
	}
	return nil, p.errf("unexpected token %s in constraint", p.cur())
}

// calc parses a linear calculation: (name|num) ((+|-) (name|num))*.
func (p *parser) calc() (Calc, error) {
	var out Calc
	neg := false
	if p.acceptPunct("-") {
		neg = true
	}
	t, err := p.calcTerm(neg)
	if err != nil {
		return nil, err
	}
	out = append(out, t)
	for p.atPunct("+") || p.atPunct("-") {
		neg = p.next().text == "-"
		t, err := p.calcTerm(neg)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

func (p *parser) calcTerm(neg bool) (CalcTerm, error) {
	switch {
	case p.at(tWord):
		return CalcTerm{Neg: neg, Name: p.next().text}, nil
	case p.at(tNum):
		return CalcTerm{Neg: neg, Num: p.next().num}, nil
	}
	return CalcTerm{}, p.errf("expected name or number in calculation, found %s", p.cur())
}

// varRef parses "{" varsingle/varmulti "}".
func (p *parser) varRef() (Var, error) {
	if err := p.expectPunct("{"); err != nil {
		return Var{}, err
	}
	v, err := p.varBody()
	if err != nil {
		return Var{}, err
	}
	return v, p.expectPunct("}")
}

func (p *parser) varBody() (Var, error) {
	var v Var
	for {
		if !p.at(tWord) {
			return v, p.errf("expected variable segment, found %s", p.cur())
		}
		part := VarPart{Text: p.next().text}
		if p.acceptPunct("[") {
			idx, err := p.calc()
			if err != nil {
				return v, err
			}
			part.Index = idx
			if p.acceptPunct("..") {
				end, err := p.calc()
				if err != nil {
					return v, err
				}
				part.RangeEnd = end
			}
			if err := p.expectPunct("]"); err != nil {
				return v, err
			}
		}
		v.Parts = append(v.Parts, part)
		if !p.acceptPunct(".") {
			return v, nil
		}
	}
}

// varList parses "{" varmulti ("," varmulti)* "}" — a list of variables.
func (p *parser) varList() ([]Var, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var out []Var
	for {
		v, err := p.varBody()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		if !p.acceptPunct(",") {
			break
		}
	}
	return out, p.expectPunct("}")
}

// isListAhead reports whether the upcoming {...} contains a comma at depth 1
// (making it a varlist rather than a single var).
func (p *parser) isListAhead() bool {
	if !p.atPunct("{") {
		return false
	}
	depth := 0
	for i := p.pos; i < len(p.toks); i++ {
		t := p.toks[i]
		if t.kind != tPunct {
			continue
		}
		switch t.text {
		case "{", "[":
			depth++
		case "}", "]":
			depth--
			if depth == 0 {
				return false
			}
		case ",":
			if depth == 1 {
				return true
			}
		}
	}
	return false
}

// allAtomic parses the "all ..." atomics.
func (p *parser) allAtomic() (Constraint, error) {
	p.pos++ // all
	a := &Atomic{}
	switch {
	case p.acceptWord("operands"):
		// all operands of {v} come from {list} below {w}
		if err := p.expectWord("of"); err != nil {
			return nil, err
		}
		v, err := p.varRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectWord("come"); err != nil {
			return nil, err
		}
		if err := p.expectWord("from"); err != nil {
			return nil, err
		}
		list, err := p.varList()
		if err != nil {
			return nil, err
		}
		if err := p.expectWord("below"); err != nil {
			return nil, err
		}
		w, err := p.varRef()
		if err != nil {
			return nil, err
		}
		a.Kind = AtomOperandsFrom
		a.Vars = []Var{v, w}
		a.Lists = [][]Var{list}
		return a, nil

	case p.acceptWord("data"):
		a.Flow = FlowData
	case p.acceptWord("control"):
		a.Flow = FlowControl
	}
	if err := p.expectWord("flow"); err != nil {
		return nil, err
	}
	if err := p.expectWord("from"); err != nil {
		return nil, err
	}
	if p.isListAhead() || a.Flow == FlowAny && p.killAhead() {
		// all flow from {list} to {list} is killed by {list}
		from, err := p.varList()
		if err != nil {
			return nil, err
		}
		if err := p.expectWord("to"); err != nil {
			return nil, err
		}
		to, err := p.varList()
		if err != nil {
			return nil, err
		}
		if err := p.expectWord("is"); err != nil {
			return nil, err
		}
		if err := p.expectWord("killed"); err != nil {
			return nil, err
		}
		if err := p.expectWord("by"); err != nil {
			return nil, err
		}
		by, err := p.varList()
		if err != nil {
			return nil, err
		}
		a.Kind = AtomKilledBy
		a.Lists = [][]Var{from, to, by}
		return a, nil
	}
	// all [data|control] flow from {v} to {w} passes through {u}
	v, err := p.varRef()
	if err != nil {
		return nil, err
	}
	if err := p.expectWord("to"); err != nil {
		return nil, err
	}
	w, err := p.varRef()
	if err != nil {
		return nil, err
	}
	if err := p.expectWord("passes"); err != nil {
		return nil, err
	}
	if err := p.expectWord("through"); err != nil {
		return nil, err
	}
	u, err := p.varRef()
	if err != nil {
		return nil, err
	}
	a.Kind = AtomPassesThrough
	a.Vars = []Var{v, w, u}
	return a, nil
}

// killAhead looks ahead for "is killed by" to distinguish the killed-by
// atomic with single-var lists from passes-through.
func (p *parser) killAhead() bool {
	for i := p.pos; i < len(p.toks) && i < p.pos+40; i++ {
		if p.toks[i].kind == tWord {
			switch p.toks[i].text {
			case "killed":
				return true
			case "passes":
				return false
			}
		}
	}
	return false
}

// idlOpcodes are the opcode spellings accepted in "is <op> instruction".
var idlOpcodes = map[string]bool{
	"store": true, "load": true, "return": true, "branch": true,
	"add": true, "sub": true, "mul": true, "sdiv": true, "srem": true,
	"fadd": true, "fsub": true, "fmul": true, "fdiv": true,
	"select": true, "gep": true, "icmp": true, "fcmp": true, "phi": true,
	"sext": true, "zext": true, "trunc": true, "sitofp": true, "fptosi": true,
	"fpext": true, "fptrunc": true, "call": true, "alloca": true,
}

// varAtomic parses atomics that start with a variable reference.
func (p *parser) varAtomic() (Constraint, error) {
	v, err := p.varRef()
	if err != nil {
		return nil, err
	}
	switch {
	case p.atWord("is"):
		p.pos++
		return p.isAtomic(v)
	case p.atWord("has"):
		p.pos++
		a := &Atomic{Kind: AtomEdge, Vars: []Var{v}}
		switch {
		case p.acceptWord("data"):
			if err := p.expectWord("flow"); err != nil {
				return nil, err
			}
			a.Edge = EdgeDataFlow
		case p.acceptWord("control"):
			switch {
			case p.acceptWord("flow"):
				a.Edge = EdgeControlFlow
			case p.acceptWord("dominance"):
				a.Edge = EdgeControlDominance
			default:
				return nil, p.errf("expected flow or dominance after control")
			}
		case p.acceptWord("dependence"):
			if err := p.expectWord("edge"); err != nil {
				return nil, err
			}
			a.Edge = EdgeDependence
		default:
			return nil, p.errf("unknown edge kind %s", p.cur())
		}
		if err := p.expectWord("to"); err != nil {
			return nil, err
		}
		w, err := p.varRef()
		if err != nil {
			return nil, err
		}
		a.Vars = append(a.Vars, w)
		return a, nil

	case p.atWord("reaches"):
		p.pos++
		if err := p.expectWord("phi"); err != nil {
			return nil, err
		}
		if err := p.expectWord("node"); err != nil {
			return nil, err
		}
		phi, err := p.varRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectWord("from"); err != nil {
			return nil, err
		}
		from, err := p.varRef()
		if err != nil {
			return nil, err
		}
		return &Atomic{Kind: AtomReachesPhi, Vars: []Var{v, phi, from}}, nil

	default:
		// dominance forms: [does not] [strictly] [data|control flow] [post] dominates
		a := &Atomic{Kind: AtomDominates, Vars: []Var{v}}
		if p.atWord("does") {
			p.pos++
			if err := p.expectWord("not"); err != nil {
				return nil, err
			}
			a.Negated = true
		}
		if p.acceptWord("strictly") {
			a.Strict = true
		}
		if p.acceptWord("data") {
			if err := p.expectWord("flow"); err != nil {
				return nil, err
			}
			a.Flow = FlowData
		} else if p.acceptWord("control") {
			if err := p.expectWord("flow"); err != nil {
				return nil, err
			}
			a.Flow = FlowControl
		}
		if p.acceptWord("post") {
			a.Post = true
		}
		if !p.acceptWord("dominates") {
			return nil, p.errf("expected dominance atomic, found %s", p.cur())
		}
		w, err := p.varRef()
		if err != nil {
			return nil, err
		}
		a.Vars = append(a.Vars, w)
		return a, nil
	}
}

// isAtomic parses the "... is ..." atomics after the leading var and "is".
func (p *parser) isAtomic(v Var) (Constraint, error) {
	a := &Atomic{Vars: []Var{v}}
	switch {
	case p.atWord("not"):
		p.pos++
		if err := p.expectWord("the"); err != nil {
			return nil, err
		}
		if err := p.expectWord("same"); err != nil {
			return nil, err
		}
		if err := p.expectWord("as"); err != nil {
			return nil, err
		}
		w, err := p.varRef()
		if err != nil {
			return nil, err
		}
		a.Kind = AtomSameAs
		a.Negated = true
		a.Vars = append(a.Vars, w)
		return a, nil

	case p.atWord("the"):
		p.pos++
		if err := p.expectWord("same"); err != nil {
			return nil, err
		}
		if err := p.expectWord("as"); err != nil {
			return nil, err
		}
		w, err := p.varRef()
		if err != nil {
			return nil, err
		}
		a.Kind = AtomSameAs
		a.Vars = append(a.Vars, w)
		return a, nil

	case p.atWord("integer") || p.atWord("float") || p.atWord("pointer"):
		a.Kind = AtomTypeIs
		a.TypeName = p.next().text
		if p.atWord("constant") {
			p.pos++
			if err := p.expectWord("zero"); err != nil {
				return nil, err
			}
			a.ConstantZero = true
		}
		return a, nil

	case p.atWord("unused"):
		p.pos++
		a.Kind = AtomClassIs
		a.ClassName = "unused"
		return a, nil

	case p.atWord("a") || p.atWord("an"):
		p.pos++
		switch {
		case p.acceptWord("constant"):
			a.Kind = AtomClassIs
			a.ClassName = "constant"
		case p.acceptWord("compile"):
			if err := p.expectWord("time"); err != nil {
				return nil, err
			}
			if err := p.expectWord("value"); err != nil {
				return nil, err
			}
			a.Kind = AtomClassIs
			a.ClassName = "compiletime"
		case p.acceptWord("argument"):
			a.Kind = AtomClassIs
			a.ClassName = "argument"
		case p.acceptWord("instruction"):
			a.Kind = AtomClassIs
			a.ClassName = "instruction"
		default:
			return nil, p.errf("unknown class %s", p.cur())
		}
		return a, nil

	case p.atWord("first") || p.atWord("second") || p.atWord("third") || p.atWord("fourth"):
		word := p.next().text
		if err := p.expectWord("argument"); err != nil {
			return nil, err
		}
		if err := p.expectWord("of"); err != nil {
			return nil, err
		}
		w, err := p.varRef()
		if err != nil {
			return nil, err
		}
		a.Kind = AtomArgOf
		a.Vars = append(a.Vars, w)
		switch word {
		case "first":
			a.ArgIndex = 0
		case "second":
			a.ArgIndex = 1
		case "third":
			a.ArgIndex = 2
		case "fourth":
			a.ArgIndex = 3
		}
		return a, nil

	case p.at(tWord) && idlOpcodes[p.cur().text]:
		a.Kind = AtomOpcodeIs
		a.Opcode = p.next().text
		if err := p.expectWord("instruction"); err != nil {
			return nil, err
		}
		return a, nil
	}
	return nil, p.errf("unknown atomic after 'is': %s", p.cur())
}
