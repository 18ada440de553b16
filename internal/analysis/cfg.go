package analysis

// Control-flow graph construction over go/ast, the substrate of the v2
// dataflow analyzer (auditcheck). The graph is intraprocedural and
// deliberately simple: basic blocks hold "simple"
// statements and the expressions of branch conditions, in evaluation
// order; compound statements (if/for/range/switch/select) contribute
// edges, not nodes. Function literals are NOT inlined — each FuncLit
// body is its own CFG, built separately by the analyzers — so a walk
// over a block's nodes must not descend into nested literals (see
// InspectShallow).
//
// Two synthetic node types paper over go/ast shapes that carry implicit
// assignments: RangeBind (the per-iteration key/value binding of a
// range loop) and DeferredCall (a deferred call's execution at function
// exit; the DeferStmt itself appears in-place for its argument
// evaluation). Both satisfy ast.Node.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// A CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks[0] is the entry block, Blocks[1] the exit block. Returns,
	// panics, and the fall-off-the-end path all lead to the exit block,
	// which holds the DeferredCall nodes (LIFO) and nothing else.
	Blocks []*Block
}

// Entry returns the function's entry block.
func (c *CFG) Entry() *Block { return c.Blocks[0] }

// Exit returns the function's exit block.
func (c *CFG) Exit() *Block { return c.Blocks[1] }

// A Block is one basic block: a maximal run of straight-line nodes.
type Block struct {
	ID    int
	Nodes []ast.Node
	Succs []Edge
}

// An Edge is one control transfer. Cond is the branch condition whose
// outcome selects this edge (nil for unconditional transfers and for
// range/select dispatch, which have no boolean condition expression);
// Negated marks the edge taken when Cond evaluates false.
type Edge struct {
	To      *Block
	Cond    ast.Expr
	Negated bool
}

// RangeBind is the synthetic node marking the per-iteration key/value
// binding of a range loop. It sits at the top of the loop's body block,
// so a forward analysis sees Key and Value freshly assigned on every
// iteration (including via back edges).
type RangeBind struct{ Rng *ast.RangeStmt }

func (r *RangeBind) Pos() token.Pos { return r.Rng.For }
func (r *RangeBind) End() token.Pos { return r.Rng.X.End() }

// DeferredCall is the synthetic node for a deferred call's execution.
// The exit block holds one per DeferStmt, innermost-first (LIFO); the
// DeferStmt node itself appears where it executes, covering the
// arguments' evaluation.
type DeferredCall struct{ Call *ast.CallExpr }

func (d *DeferredCall) Pos() token.Pos { return d.Call.Pos() }
func (d *DeferredCall) End() token.Pos { return d.Call.End() }

// BuildCFG constructs the control-flow graph of body. info is used only
// to recognize the panic builtin (a panic terminates its block into the
// exit path, running defers).
func BuildCFG(body *ast.BlockStmt, info *types.Info) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, info: info, labels: map[string]*labelTarget{}}
	entry := b.newBlock()
	exit := b.newBlock()
	b.exit = exit
	b.cur = entry
	b.stmtList(body.List)
	b.jump(exit) // fall off the end
	// Deferred calls execute on every path into the exit, LIFO.
	for i := len(b.defers) - 1; i >= 0; i-- {
		exit.Nodes = append(exit.Nodes, &DeferredCall{Call: b.defers[i]})
	}
	// Resolve forward gotos.
	for _, g := range b.gotos {
		if t, ok := b.labels[g.label]; ok && t.entry != nil {
			g.from.Succs = append(g.from.Succs, Edge{To: t.entry})
		}
	}
	return b.cfg
}

// labelTarget records where a labeled statement's control targets live.
type labelTarget struct {
	entry *Block // goto / loop-head target
	brk   *Block // break L target (loops, switch, select)
	cont  *Block // continue L target (loops only)
}

type pendingGoto struct {
	from  *Block
	label string
}

type cfgBuilder struct {
	cfg    *CFG
	info   *types.Info
	cur    *Block
	exit   *Block
	defers []*ast.CallExpr
	labels map[string]*labelTarget
	gotos  []pendingGoto

	// Innermost enclosing break/continue targets.
	breaks []*Block
	conts  []*Block
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{ID: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// jump ends the current block with an unconditional edge and leaves the
// builder on a fresh, unreachable block (dead code after return/break
// still parses into blocks; with no predecessors the dataflow never
// seeds them).
func (b *cfgBuilder) jump(to *Block) {
	b.cur.Succs = append(b.cur.Succs, Edge{To: to})
	b.cur = b.newBlock()
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt translates one statement. label is the enclosing LabeledStmt's
// name when the statement is its direct body ("" otherwise).
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// Give the label a landing block so gotos (including backward
		// ones) have a stable target, then translate the body with the
		// label attached for break/continue registration.
		land := b.newBlock()
		b.jump(land)
		b.cur = land
		b.labels[s.Label.Name] = &labelTarget{entry: land}
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.cur.Nodes = append(b.cur.Nodes, s.Cond)
		head := b.cur
		after := b.newBlock()
		then := b.newBlock()
		head.Succs = append(head.Succs, Edge{To: then, Cond: s.Cond})
		b.cur = then
		b.stmtList(s.Body.List)
		b.jump(after)
		if s.Else != nil {
			els := b.newBlock()
			head.Succs = append(head.Succs, Edge{To: els, Cond: s.Cond, Negated: true})
			b.cur = els
			b.stmt(s.Else, "")
			b.jump(after)
		} else {
			head.Succs = append(head.Succs, Edge{To: after, Cond: s.Cond, Negated: true})
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		head := b.newBlock()
		b.jump(head)
		b.cur = head
		after := b.newBlock()
		post := b.newBlock() // continue target
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		body := b.newBlock()
		head.Succs = append(head.Succs, Edge{To: body, Cond: s.Cond})
		if s.Cond != nil {
			head.Succs = append(head.Succs, Edge{To: after, Cond: s.Cond, Negated: true})
		}
		b.loopBody(body, post, after, label, s.Body.List)
		b.cur = post
		if s.Post != nil {
			b.stmt(s.Post, "")
		}
		b.jump(head)
		b.cur = after

	case *ast.RangeStmt:
		b.cur.Nodes = append(b.cur.Nodes, s.X)
		head := b.newBlock()
		b.jump(head)
		b.cur = head
		after := b.newBlock()
		body := b.newBlock()
		head.Succs = append(head.Succs, Edge{To: body}, Edge{To: after})
		if s.Key != nil || s.Value != nil {
			body.Nodes = append(body.Nodes, &RangeBind{Rng: s})
		}
		b.loopBody(body, head, after, label, s.Body.List)
		b.cur = after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		b.switchStmt(s, label)

	case *ast.SelectStmt:
		sel := s
		head := b.cur
		after := b.newBlock()
		if label != "" {
			b.labels[label].brk = after
		}
		b.breaks = append(b.breaks, after)
		anyCase := false
		for _, cl := range sel.Body.List {
			cc := cl.(*ast.CommClause)
			anyCase = true
			blk := b.newBlock()
			head.Succs = append(head.Succs, Edge{To: blk})
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm, "")
			}
			b.stmtList(cc.Body)
			b.jump(after)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		if !anyCase {
			// select{} blocks forever: no edge to after.
			b.cur = b.newBlock()
		}
		b.cur = after

	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.jump(b.exit)

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.DeferStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.defers = append(b.defers, s.Call)

	case *ast.EmptyStmt:
		// nothing

	default:
		// Simple statements: assignments, declarations, expressions,
		// sends, go statements, inc/dec.
		b.cur.Nodes = append(b.cur.Nodes, s)
		if b.panics(s) {
			b.jump(b.exit)
		}
	}
}

// loopBody translates a loop body with break/continue targets pushed.
func (b *cfgBuilder) loopBody(body, cont, after *Block, label string, list []ast.Stmt) {
	if label != "" {
		b.labels[label].brk = after
		b.labels[label].cont = cont
	}
	b.breaks = append(b.breaks, after)
	b.conts = append(b.conts, cont)
	b.cur = body
	b.stmtList(list)
	b.jump(cont)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.conts = b.conts[:len(b.conts)-1]
}

func (b *cfgBuilder) switchStmt(s ast.Stmt, label string) {
	var init ast.Stmt
	var tag ast.Node
	var clauses []ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		init, clauses = s.Init, s.Body.List
		if s.Tag != nil {
			tag = s.Tag
		}
	case *ast.TypeSwitchStmt:
		init, clauses = s.Init, s.Body.List
		tag = s.Assign
	}
	if init != nil {
		b.stmt(init, "")
	}
	if tag != nil {
		b.cur.Nodes = append(b.cur.Nodes, tag)
	}
	head := b.cur
	after := b.newBlock()
	if label != "" {
		b.labels[label].brk = after
	}
	b.breaks = append(b.breaks, after)
	hasDefault := false
	var caseBlocks []*Block
	var caseBodies [][]ast.Stmt
	for _, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		blk := b.newBlock()
		head.Succs = append(head.Succs, Edge{To: blk})
		for _, e := range cc.List {
			blk.Nodes = append(blk.Nodes, e)
		}
		caseBlocks = append(caseBlocks, blk)
		caseBodies = append(caseBodies, cc.Body)
	}
	for i, blk := range caseBlocks {
		b.cur = blk
		// fallthrough jumps to the next case's body start; translate the
		// body, intercepting a trailing fallthrough.
		body := caseBodies[i]
		ft := false
		if n := len(body); n > 0 {
			if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				body, ft = body[:n-1], true
			}
		}
		b.stmtList(body)
		if ft && i+1 < len(caseBlocks) {
			b.jump(caseBlocks[i+1])
		} else {
			b.jump(after)
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	if !hasDefault {
		head.Succs = append(head.Succs, Edge{To: after})
	}
	b.cur = after
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	switch s.Tok {
	case token.BREAK:
		if s.Label != nil {
			if t, ok := b.labels[s.Label.Name]; ok && t.brk != nil {
				b.jump(t.brk)
				return
			}
		} else if n := len(b.breaks); n > 0 {
			b.jump(b.breaks[n-1])
			return
		}
		b.cur = b.newBlock()
	case token.CONTINUE:
		if s.Label != nil {
			if t, ok := b.labels[s.Label.Name]; ok && t.cont != nil {
				b.jump(t.cont)
				return
			}
		} else if n := len(b.conts); n > 0 {
			b.jump(b.conts[n-1])
			return
		}
		b.cur = b.newBlock()
	case token.GOTO:
		if s.Label != nil {
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
		}
		b.cur = b.newBlock()
	case token.FALLTHROUGH:
		// Handled in switchStmt; a stray one (invalid Go) is ignored.
	}
}

// panics reports whether the statement's top level is a call to the
// panic builtin.
func (b *cfgBuilder) panics(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	return ok && IsBuiltin(b.info, call, "panic")
}

// String renders the graph compactly for tests and -debug output:
// each line "bID[n]: succ succ", where a conditional successor is
// suffixed with + (true edge) or - (false edge).
func (c *CFG) String() string {
	var sb strings.Builder
	for _, blk := range c.Blocks {
		fmt.Fprintf(&sb, "b%d[%d]:", blk.ID, len(blk.Nodes))
		for _, e := range blk.Succs {
			mark := ""
			if e.Cond != nil {
				if e.Negated {
					mark = "-"
				} else {
					mark = "+"
				}
			}
			fmt.Fprintf(&sb, " b%d%s", e.To.ID, mark)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// InspectShallow walks n like ast.Inspect but does not descend into
// function literals: a FuncLit body is a separate CFG, so its contents
// must not leak into the enclosing function's per-node transfer. The
// literal node itself IS visited (so analyses can model the capture).
// The synthetic CFG node types are unwrapped to their underlying
// expressions (go/ast.Walk cannot traverse foreign node types).
func InspectShallow(n ast.Node, fn func(ast.Node) bool) {
	switch s := n.(type) {
	case *RangeBind:
		if !fn(s) {
			return
		}
		// The binding's operands: key/value are written, X was already
		// visited in the loop's head block.
		if s.Rng.Key != nil {
			InspectShallow(s.Rng.Key, fn)
		}
		if s.Rng.Value != nil {
			InspectShallow(s.Rng.Value, fn)
		}
		return
	case *DeferredCall:
		if !fn(s) {
			return
		}
		InspectShallow(s.Call, fn)
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if !fn(m) {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return true
	})
}
