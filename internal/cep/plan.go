package cep

import (
	"slices"

	"patterndp/internal/event"
)

// Plan is a compiled query evaluator: the serving-time form of a Query. The
// expression tree is compiled once — at registration, or once per
// control-plane epoch in the streaming runtime — into
//
//   - a required-type set: event types that must all be present for the
//     pattern to possibly match, letting the hot path skip windows that
//     cannot answer true with a handful of map lookups;
//   - a flat postfix program over presence indicators, replacing the
//     recursive EvalIndicators interpreter (no tree re-traversal, no
//     interface dispatch, no allocation per evaluation).
//
// Bind resolves both against a type table, for callers that keep a window's
// released indicators as a row of bits. A Plan is immutable after Compile and
// safe for concurrent use by any number of goroutines.
type Plan struct {
	query Query

	// constVal short-circuits evaluation over indicators: +1 when the
	// pattern is always detected, -1 when it can never be (e.g. TIMES with
	// Min > 1, whose repetition count a released existence bit cannot
	// witness), 0 when the answer depends on the indicators.
	constVal int8
	// conjunctive marks patterns whose indicator answer is exactly "all
	// required types present" (trees of SEQ/AND over atoms): for those the
	// required-set check is the whole evaluation and prog stays nil.
	conjunctive bool
	// required are the types that must all be present, under indicator
	// semantics, for the pattern to possibly match.
	required []event.Type

	// prog is the postfix indicator program; types is its operand table.
	prog     []planInstr
	types    []event.Type
	stackCap int
}

// planInstr is one postfix instruction of the indicator program.
type planInstr struct {
	op  planOp
	arg int32 // operand index for opPresent; child count for opAll/opAny
}

type planOp uint8

const (
	opPresent planOp = iota // push the operand at index arg
	opAll                   // pop arg values, push their conjunction
	opAny                   // pop arg values, push their disjunction
	opNot                   // negate the top of stack
	opTrue                  // push true
	opFalse                 // push false
)

// Compile validates the query and compiles it into a Plan.
func Compile(q Query) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{query: q}
	n := lowerIndicator(q.Pattern)
	switch n.kind {
	case pTrue:
		p.constVal = 1
	case pFalse:
		p.constVal = -1
	default:
		p.required = requiredTypes(n)
		if conjunctiveOnly(n) {
			p.conjunctive = true
		} else {
			c := &planCompiler{types: make(map[event.Type]int32)}
			c.emit(n)
			p.prog, p.types, p.stackCap = c.prog, c.table, c.maxDepth
		}
	}
	return p, nil
}

// MustCompile is Compile for queries known to be valid; it panics on error.
func MustCompile(q Query) *Plan {
	p, err := Compile(q)
	if err != nil {
		panic(err)
	}
	return p
}

// Query returns the compiled query.
func (p *Plan) Query() Query { return p.query }

// RequiredTypes returns the event types that must all be present in a
// window's released indicators for the pattern to possibly match. The
// returned slice is shared and must not be modified.
func (p *Plan) RequiredTypes() []event.Type { return p.required }

// EvalIndicators answers the query over one window's released presence
// indicators — the compiled counterpart of the EvalIndicators function. It
// allocates nothing and is safe for concurrent use.
func (p *Plan) EvalIndicators(present map[event.Type]bool) bool {
	if p.constVal != 0 {
		return p.constVal > 0
	}
	for _, t := range p.required {
		if !present[t] {
			return false
		}
	}
	if p.conjunctive {
		return true
	}
	var scratch [16]bool
	row := scratch[:]
	if len(p.types) > len(scratch) {
		row = make([]bool, len(p.types))
	}
	for i, t := range p.types {
		row[i] = present[t]
	}
	return runProg(p.prog, p.stackCap, row)
}

// runProg evaluates a postfix program whose opPresent operands index row.
func runProg(prog []planInstr, stackCap int, row []bool) bool {
	var scratch [16]bool
	st := scratch[:0]
	if stackCap > len(scratch) {
		st = make([]bool, 0, stackCap)
	}
	for _, in := range prog {
		switch in.op {
		case opPresent:
			st = append(st, row[in.arg])
		case opAll:
			n := len(st) - int(in.arg)
			v := true
			for _, b := range st[n:] {
				v = v && b
			}
			st = append(st[:n], v)
		case opAny:
			n := len(st) - int(in.arg)
			v := false
			for _, b := range st[n:] {
				v = v || b
			}
			st = append(st[:n], v)
		case opNot:
			st[len(st)-1] = !st[len(st)-1]
		case opTrue:
			st = append(st, true)
		case opFalse:
			st = append(st, false)
		}
	}
	return st[0]
}

// BoundPlan is a Plan's indicator evaluator bound to a type table: a caller
// that keeps each window's released indicators as a flat row of bits, one
// per table entry, answers the query by position instead of by
// map[event.Type] lookup. Immutable and safe for concurrent use.
type BoundPlan struct {
	constVal    int8
	conjunctive bool
	// required and the opPresent operands of prog are row positions.
	required []int32
	prog     []planInstr
	stackCap int
}

// Bind resolves the plan's required and operand types to their positions in
// table. A type missing from the table reads as absent in every row. A
// caller that binds many plans to one table passes the table's
// type→position index too, so the table is indexed once rather than once per
// plan; without it, Bind indexes the table itself. Either way each type
// costs one lookup.
func (p *Plan) Bind(table []event.Type, index ...map[event.Type]int32) *BoundPlan {
	b := &BoundPlan{constVal: p.constVal, conjunctive: p.conjunctive, stackCap: p.stackCap}
	if b.constVal != 0 {
		return b
	}
	var pos map[event.Type]int32
	if len(index) > 0 {
		pos = index[0]
	} else {
		pos = make(map[event.Type]int32, len(table))
		for i, t := range table {
			pos[t] = int32(i)
		}
	}
	b.required = make([]int32, len(p.required))
	for i, t := range p.required {
		at, ok := pos[t]
		if !ok {
			// A required type that is never present: never detected.
			return &BoundPlan{constVal: -1}
		}
		b.required[i] = at
	}
	b.prog = make([]planInstr, len(p.prog))
	for i, in := range p.prog {
		if in.op == opPresent {
			if at, ok := pos[p.types[in.arg]]; ok {
				in.arg = at
			} else {
				in = planInstr{op: opFalse}
			}
		}
		b.prog[i] = in
	}
	return b
}

// Eval answers the query over one row of released indicators laid out by the
// table the plan was bound to — EvalIndicators by position. It allocates
// nothing.
func (b *BoundPlan) Eval(row []bool) bool {
	if b.constVal != 0 {
		return b.constVal > 0
	}
	for _, pos := range b.required {
		if !row[pos] {
			return false
		}
	}
	if b.conjunctive {
		return true
	}
	return runProg(b.prog, b.stackCap, row)
}

// --- indicator-semantics lowering ----------------------------------------

// pnode is the lowered, constant-folded form of an expression under
// indicator semantics: SEQ degrades to conjunction (order is not observable
// in released existence bits) and TIMES folds to its inner expression
// (Min ≤ 1) or constant false (Min > 1).
type pnode struct {
	kind  pkind
	typ   event.Type
	parts []*pnode
}

type pkind uint8

const (
	pAtom pkind = iota
	pAll
	pAny
	pNot
	pTrue
	pFalse
)

var (
	nodeTrue  = &pnode{kind: pTrue}
	nodeFalse = &pnode{kind: pFalse}
)

// lowerIndicator lowers an expression tree to its indicator-semantics form,
// folding constants so the compiled program never evaluates dead branches.
// The lowering mirrors EvalIndicators exactly; TestPropertyPlanIndicators
// asserts the equivalence over randomized expressions.
func lowerIndicator(e Expr) *pnode {
	switch x := e.(type) {
	case *Atom:
		return &pnode{kind: pAtom, typ: x.Type}
	case *Seq:
		return lowerAll(x.Parts)
	case *And:
		return lowerAll(x.Parts)
	case *Or:
		return lowerAny(x.Parts)
	case *Neg:
		inner := lowerIndicator(x.Inner)
		switch inner.kind {
		case pTrue:
			return nodeFalse
		case pFalse:
			return nodeTrue
		case pNot:
			return inner.parts[0]
		}
		return &pnode{kind: pNot, parts: []*pnode{inner}}
	case *Times:
		if x.Min > 1 {
			// A released existence bit can witness one occurrence at
			// most (see EvalIndicators).
			return nodeFalse
		}
		return lowerIndicator(x.Inner)
	default:
		// Unknown node kinds are rejected by Validate before Compile.
		panic("cep: unknown expression node in plan lowering")
	}
}

func lowerAll(parts []Expr) *pnode {
	out := make([]*pnode, 0, len(parts))
	for _, part := range parts {
		n := lowerIndicator(part)
		switch n.kind {
		case pTrue:
			continue
		case pFalse:
			return nodeFalse
		}
		out = append(out, n)
	}
	switch len(out) {
	case 0:
		return nodeTrue
	case 1:
		return out[0]
	}
	return &pnode{kind: pAll, parts: out}
}

func lowerAny(parts []Expr) *pnode {
	out := make([]*pnode, 0, len(parts))
	for _, part := range parts {
		n := lowerIndicator(part)
		switch n.kind {
		case pFalse:
			continue
		case pTrue:
			return nodeTrue
		}
		out = append(out, n)
	}
	switch len(out) {
	case 0:
		return nodeFalse
	case 1:
		return out[0]
	}
	return &pnode{kind: pAny, parts: out}
}

// requiredTypes computes the types that must all be present for the lowered
// pattern to possibly match: an atom requires its type, a conjunction the
// union over its parts, a disjunction the intersection (only a type every
// branch needs is truly required), and a negation nothing (it can match an
// empty window).
func requiredTypes(n *pnode) []event.Type {
	set := requiredSet(n)
	out := make([]event.Type, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}

func requiredSet(n *pnode) map[event.Type]bool {
	switch n.kind {
	case pAtom:
		return map[event.Type]bool{n.typ: true}
	case pAll:
		out := make(map[event.Type]bool)
		for _, part := range n.parts {
			for t := range requiredSet(part) {
				out[t] = true
			}
		}
		return out
	case pAny:
		out := requiredSet(n.parts[0])
		for _, part := range n.parts[1:] {
			sub := requiredSet(part)
			for t := range out {
				if !sub[t] {
					delete(out, t)
				}
			}
		}
		return out
	default: // pNot, pTrue, pFalse
		return nil
	}
}

// conjunctiveOnly reports whether the lowered pattern is a pure conjunction
// of atoms, for which "all required types present" is the full indicator
// answer and no program is needed.
func conjunctiveOnly(n *pnode) bool {
	switch n.kind {
	case pAtom:
		return true
	case pAll:
		for _, part := range n.parts {
			if !conjunctiveOnly(part) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// --- program emission -----------------------------------------------------

type planCompiler struct {
	prog     []planInstr
	table    []event.Type
	types    map[event.Type]int32
	depth    int
	maxDepth int
}

func (c *planCompiler) push(in planInstr, delta int) {
	c.prog = append(c.prog, in)
	c.depth += delta
	if c.depth > c.maxDepth {
		c.maxDepth = c.depth
	}
}

func (c *planCompiler) typeIndex(t event.Type) int32 {
	if i, ok := c.types[t]; ok {
		return i
	}
	i := int32(len(c.table))
	c.table = append(c.table, t)
	c.types[t] = i
	return i
}

func (c *planCompiler) emit(n *pnode) {
	switch n.kind {
	case pAtom:
		c.push(planInstr{op: opPresent, arg: c.typeIndex(n.typ)}, 1)
	case pAll:
		for _, part := range n.parts {
			c.emit(part)
		}
		c.push(planInstr{op: opAll, arg: int32(len(n.parts))}, 1-len(n.parts))
	case pAny:
		for _, part := range n.parts {
			c.emit(part)
		}
		c.push(planInstr{op: opAny, arg: int32(len(n.parts))}, 1-len(n.parts))
	case pNot:
		c.emit(n.parts[0])
		c.push(planInstr{op: opNot}, 0)
	case pTrue:
		c.push(planInstr{op: opTrue}, 1)
	case pFalse:
		c.push(planInstr{op: opFalse}, 1)
	}
}
