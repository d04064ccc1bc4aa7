// Package flow is the dataflow engine under esrvet's interprocedural
// rule A1: a per-function control-flow graph, a call graph over the
// loaded packages, and worklist fixpoint solvers (intraprocedural over
// CFG blocks, interprocedural over per-function summaries).
//
// Like the loader it sits beside, the package uses only the standard
// library's go/ast and go/types.  It is deliberately engine-only: lock
// classification and diagnostics live in the analyzers
// (internal/analysis), which consume the graphs built here.
package flow

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// Block is one basic block: a maximal straight-line run of statements
// and condition expressions, ended by a control transfer.
type Block struct {
	// Index is the block's position in CFG.Blocks.
	Index int
	// Kind labels the block's syntactic role ("entry", "for.head",
	// "select.comm", "exit", ...), for dumps and debugging.
	Kind string
	// Nodes are the statements and condition expressions evaluated in
	// this block, in evaluation order.  Condition expressions of if/for/
	// switch appear as bare ast.Expr entries.
	Nodes []ast.Node
	// Succs are the successor blocks.
	Succs []*Block
}

// CFG is the control-flow graph of one function body.
//
// Every return path (and the implicit fall-off-the-end path) has an
// edge to the single virtual Exit block, which holds no statements.
// Deferred calls are modeled as exit-edge effects: Defers lists every
// defer statement registered anywhere in the function, and analyses
// apply their effects when interpreting Exit.  This is conservative for
// conditionally registered defers, matching the paper-level contract
// the old intraprocedural A1 already used.
type CFG struct {
	// Blocks lists every block; Blocks[0] is the entry and the last
	// entry is Exit.  Blocks that lost all predecessors (code after
	// return, break-less for{} exits) remain in the slice; forward
	// analyses never reach them.
	Blocks []*Block
	// Entry is the function's entry block.
	Entry *Block
	// Exit is the single virtual exit block.
	Exit *Block
	// Defers are all defer statements in the function, in source order.
	Defers []*ast.DeferStmt
}

// NewCFG builds the control-flow graph of one function body.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &builder{
		cfg:    &CFG{},
		labels: make(map[string]*labelInfo),
	}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = &Block{Kind: "exit"}
	b.cur = b.cfg.Entry
	b.stmts(body.List)
	b.edge(b.cur, b.cfg.Exit)
	b.cfg.Exit.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

// labelInfo tracks one label's targets: the labeled block itself (for
// goto) and, when the label names a loop/switch/select, the break and
// continue destinations.
type labelInfo struct {
	target *Block
	brk    *Block
	cont   *Block
}

type builder struct {
	cfg *CFG
	// cur is the block under construction; nil after a terminator
	// (return, panic, break, continue, goto) until the next statement
	// opens an unreachable block or a join point resets it.
	cur *Block

	breaks    []*Block // innermost-last break targets
	continues []*Block // innermost-last continue targets
	labels    map[string]*labelInfo
	// pendingLabel is set while the statement under a label is entered,
	// so loop/switch builders can register labeled break/continue.
	pendingLabel *labelInfo
	// fallTarget is the next case clause, the destination of an explicit
	// fallthrough inside the current clause body.
	fallTarget *Block
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// edge adds from→to, tolerating a terminated (nil) from.
func (b *builder) edge(from, to *Block) {
	if from == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// block returns the current block, opening an unreachable one after a
// terminator so trailing dead statements still have a home.
func (b *builder) block() *Block {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	return b.cur
}

func (b *builder) add(n ast.Node) {
	blk := b.block()
	blk.Nodes = append(blk.Nodes, n)
}

func (b *builder) labelInfoFor(name string) *labelInfo {
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{target: b.newBlock("label." + name)}
		b.labels[name] = li
	}
	return li
}

// takeLabel consumes the pending label (set by the enclosing
// LabeledStmt) for the loop/switch statement being built.
func (b *builder) takeLabel() *labelInfo {
	li := b.pendingLabel
	b.pendingLabel = nil
	return li
}

func (b *builder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	// Any statement other than the one directly under a label discards
	// the pending label.
	if _, ok := s.(*ast.LabeledStmt); !ok {
		defer func() { b.pendingLabel = nil }()
	}
	switch s := s.(type) {
	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.edge(b.cur, b.cfg.Exit)
			b.cur = nil
		}
	case *ast.SendStmt, *ast.IncDecStmt, *ast.AssignStmt, *ast.GoStmt, *ast.DeclStmt, *ast.EmptyStmt:
		b.add(s)
	case *ast.DeferStmt:
		b.add(s)
		b.cfg.Defers = append(b.cfg.Defers, s)
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = nil
	case *ast.BlockStmt:
		b.stmts(s.List)
	case *ast.LabeledStmt:
		li := b.labelInfoFor(s.Label.Name)
		b.edge(b.cur, li.target)
		b.cur = li.target
		b.pendingLabel = li
		b.stmt(s.Stmt)
		b.pendingLabel = nil
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchLike(b.takeLabel(), s.Init, s.Tag, nil, s.Body, true)
	case *ast.TypeSwitchStmt:
		b.switchLike(b.takeLabel(), s.Init, nil, s.Assign, s.Body, false)
	case *ast.SelectStmt:
		b.selectStmt(s)
	default:
		b.add(s)
	}
}

func (b *builder) branch(s *ast.BranchStmt) {
	switch s.Tok {
	case token.BREAK:
		t := b.innermost(b.breaks)
		if s.Label != nil {
			t = b.labelInfoFor(s.Label.Name).brk
		}
		if t != nil {
			b.edge(b.cur, t)
		}
		b.cur = nil
	case token.CONTINUE:
		t := b.innermost(b.continues)
		if s.Label != nil {
			t = b.labelInfoFor(s.Label.Name).cont
		}
		if t != nil {
			b.edge(b.cur, t)
		}
		b.cur = nil
	case token.GOTO:
		b.edge(b.cur, b.labelInfoFor(s.Label.Name).target)
		b.cur = nil
	case token.FALLTHROUGH:
		if b.fallTarget != nil {
			b.edge(b.cur, b.fallTarget)
		}
		b.cur = nil
	}
}

func (b *builder) innermost(stack []*Block) *Block {
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Cond)
	cond := b.block()
	then := b.newBlock("if.then")
	b.edge(cond, then)
	if s.Else == nil {
		b.cur = then
		b.stmts(s.Body.List)
		thenEnd := b.cur
		done := b.newBlock("if.done")
		b.edge(cond, done)
		b.edge(thenEnd, done)
		b.cur = done
		return
	}
	els := b.newBlock("if.else")
	b.edge(cond, els)
	b.cur = then
	b.stmts(s.Body.List)
	thenEnd := b.cur
	b.cur = els
	b.stmt(s.Else)
	elseEnd := b.cur
	if thenEnd == nil && elseEnd == nil {
		b.cur = nil
		return
	}
	done := b.newBlock("if.done")
	b.edge(thenEnd, done)
	b.edge(elseEnd, done)
	b.cur = done
}

func (b *builder) forStmt(s *ast.ForStmt) {
	lbl := b.takeLabel()
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock("for.head")
	b.edge(b.cur, head)
	b.cur = head
	if s.Cond != nil {
		b.add(s.Cond)
	}
	body := b.newBlock("for.body")
	done := b.newBlock("for.done")
	b.edge(head, body)
	if s.Cond != nil {
		b.edge(head, done)
	}
	contTarget := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock("for.post")
		contTarget = post
	}
	if lbl != nil {
		lbl.brk, lbl.cont = done, contTarget
	}
	b.breaks = append(b.breaks, done)
	b.continues = append(b.continues, contTarget)
	b.cur = body
	b.stmts(s.Body.List)
	if post != nil {
		b.edge(b.cur, post)
		b.cur = post
		b.stmt(s.Post)
		b.edge(b.cur, head)
	} else {
		b.edge(b.cur, head)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	b.cur = done
}

func (b *builder) rangeStmt(s *ast.RangeStmt) {
	lbl := b.takeLabel()
	b.add(s.X)
	head := b.newBlock("range.head")
	b.edge(b.block(), head)
	body := b.newBlock("range.body")
	done := b.newBlock("range.done")
	b.edge(head, body)
	b.edge(head, done)
	if lbl != nil {
		lbl.brk, lbl.cont = done, head
	}
	b.breaks = append(b.breaks, done)
	b.continues = append(b.continues, head)
	b.cur = body
	b.stmts(s.Body.List)
	b.edge(b.cur, head)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	b.cur = done
}

// switchLike builds switch and type-switch graphs: one block per case
// clause, all fed by the head; fallthrough (expression switches only)
// edges into the next clause; a missing default leaves the zero-case
// edge head→done.
func (b *builder) switchLike(lbl *labelInfo, init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt, allowFallthrough bool) {
	if init != nil {
		b.stmt(init)
	}
	if tag != nil {
		b.add(tag)
	}
	if assign != nil {
		b.add(assign)
	}
	head := b.block()
	done := b.newBlock("switch.done")
	if lbl != nil {
		lbl.brk = done
	}
	b.breaks = append(b.breaks, done)
	clauses := body.List
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		kind := "switch.case"
		if cc.List == nil {
			kind = "switch.default"
			hasDefault = true
		}
		blocks[i] = b.newBlock(kind)
		b.edge(head, blocks[i])
	}
	if !hasDefault {
		b.edge(head, done)
	}
	savedFall := b.fallTarget
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		b.fallTarget = nil
		if allowFallthrough && i+1 < len(clauses) {
			b.fallTarget = blocks[i+1]
		}
		b.stmts(cc.Body)
		b.edge(b.cur, done)
	}
	b.fallTarget = savedFall
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = done
}

func (b *builder) selectStmt(s *ast.SelectStmt) {
	lbl := b.takeLabel()
	head := b.block()
	done := b.newBlock("select.done")
	if lbl != nil {
		lbl.brk = done
	}
	b.breaks = append(b.breaks, done)
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		kind := "select.comm"
		if cc.Comm == nil {
			kind = "select.default"
		}
		blk := b.newBlock(kind)
		b.edge(head, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmts(cc.Body)
		b.edge(b.cur, done)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = done
}

// isPanicCall reports whether the expression statement is a call to the
// predeclared panic.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// Dump renders the CFG as one block per line — the golden-test format:
//
//	b0 entry: [x := 0] -> b1
//	b1 for.head: [x < n] -> b2 b3
//	...
//	b4 exit:
func (c *CFG) Dump(fset *token.FileSet) string {
	var sb strings.Builder
	for _, b := range c.Blocks {
		fmt.Fprintf(&sb, "b%d %s:", b.Index, b.Kind)
		for _, n := range b.Nodes {
			fmt.Fprintf(&sb, " [%s]", nodeString(fset, n))
		}
		if len(b.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range b.Succs {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// nodeString renders one node on a single line, whitespace-collapsed
// and truncated, for Dump.
func nodeString(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	s := strings.Join(strings.Fields(buf.String()), " ")
	const max = 60
	if len(s) > max {
		s = s[:max] + "…"
	}
	return s
}
