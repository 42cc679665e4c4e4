package lower

import (
	"math"

	"dyncc/internal/ast"
	"dyncc/internal/ir"
	"dyncc/internal/token"
	"dyncc/internal/types"
)

func floatBits(f float64) int64 { return int64(math.Float64bits(f)) }

// local is a function-scope variable binding.
type local struct {
	name    string
	typ     *types.Type
	val     ir.Value // virtual register, when !onStack
	onStack bool
	slot    int // stack word offset, when onStack
}

type funcLowerer struct {
	*lowerer
	f   *ir.Func
	cur *ir.Block // nil after a terminator until a new block starts

	scopes    []map[string]*local
	addrTaken map[string]bool

	region    *ir.Region
	loopStack []*ir.Loop

	breakTargets    []*ir.Block
	continueTargets []*ir.Block
	labelBlocks     map[string]*ir.Block

	regionSeq int
	loopSeq   int
}

func (lw *lowerer) lowerFunc(fd *ast.FuncDecl) {
	ftyp := lw.funcs[fd.Name]
	f := ir.NewFunc(fd.Name, ftyp)
	fl := &funcLowerer{
		lowerer:     lw,
		f:           f,
		addrTaken:   map[string]bool{},
		labelBlocks: map[string]*ir.Block{},
	}
	fl.scanAddrTaken(fd.Body)

	entry := f.NewBlock()
	fl.cur = entry
	fl.pushScope()
	for i, p := range fd.Params {
		pt := ftyp.Params[i]
		v := f.NewValue(p.Name, pt)
		f.Params = append(f.Params, v)
		lc := &local{name: p.Name, typ: pt, val: v}
		if fl.addrTaken[p.Name] {
			lc.onStack = true
			lc.slot = fl.allocSlots(1)
			addr := fl.emitV(&ir.Instr{Op: ir.OpStackAddr, Slot: lc.slot, Typ: types.PointerTo(pt)})
			fl.emit(&ir.Instr{Op: ir.OpStore, Args: []ir.Value{addr, v}, Typ: pt})
		}
		fl.define(lc)
	}
	fl.block(fd.Body)
	// Implicit return at the end of a void function (or fall-off).
	if fl.cur != nil {
		if ftyp.Ret.Kind == types.Void {
			fl.emit(&ir.Instr{Op: ir.OpRet})
		} else {
			z := fl.emitV(&ir.Instr{Op: ir.OpConst, Const: 0, Typ: ftyp.Ret})
			fl.emit(&ir.Instr{Op: ir.OpRet, Args: []ir.Value{z}})
		}
		fl.cur = nil
	}
	fl.popScope()
	fl.checkRegionEdges()
	f.ComputePreds()
	f.RemoveUnreachable(lw.scratch)
	lw.mod.AddFunc(f)
}

// ------------------------------------------------------------ helpers

func (fl *funcLowerer) pushScope() {
	fl.scopes = append(fl.scopes, map[string]*local{})
}

func (fl *funcLowerer) popScope() {
	fl.scopes = fl.scopes[:len(fl.scopes)-1]
}

func (fl *funcLowerer) define(lc *local) {
	fl.scopes[len(fl.scopes)-1][lc.name] = lc
}

func (fl *funcLowerer) lookup(name string) *local {
	for i := len(fl.scopes) - 1; i >= 0; i-- {
		if lc, ok := fl.scopes[i][name]; ok {
			return lc
		}
	}
	return nil
}

func (fl *funcLowerer) allocSlots(n int) int {
	s := fl.f.StackSize
	fl.f.StackSize += n
	return s
}

// newBlock creates a block carrying the current region/loop marks.
func (fl *funcLowerer) newBlock() *ir.Block {
	b := fl.f.NewBlock()
	b.Region = fl.region
	b.Loops = append([]*ir.Loop(nil), fl.loopStack...)
	return b
}

// startBlock makes b the current insertion block, linking from the previous
// block with a jump when control falls through.
func (fl *funcLowerer) startBlock(b *ir.Block) {
	if fl.cur != nil {
		fl.emit(&ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{b}})
	}
	fl.cur = b
}

// emit appends an instruction to the current block. After a terminator the
// current block becomes nil; emitting with no current block creates an
// unreachable block that RemoveUnreachable will discard.
func (fl *funcLowerer) emit(in *ir.Instr) *ir.Instr {
	if fl.cur == nil {
		fl.cur = fl.newBlock()
	}
	fl.cur.Append(in)
	if in.Op.IsTerminator() {
		fl.cur = nil
	}
	return in
}

// emitV emits an instruction producing a fresh value and returns the value.
func (fl *funcLowerer) emitV(in *ir.Instr) ir.Value {
	in.Dst = fl.f.NewValue("", in.Typ)
	fl.emit(in)
	return in.Dst
}

// constInt emits an integer constant.
func (fl *funcLowerer) constInt(v int64, t *types.Type) ir.Value {
	return fl.emitV(&ir.Instr{Op: ir.OpConst, Const: v, Typ: t})
}

// ------------------------------------------------------------ addr-taken scan

func (fl *funcLowerer) scanAddrTaken(n ast.Node) {
	switch x := n.(type) {
	case nil:
		return
	case *ast.Block:
		for _, s := range x.Stmts {
			fl.scanAddrTaken(s)
		}
	case *ast.DeclStmt:
		for _, d := range x.Decls {
			if d.Init != nil {
				fl.scanAddrTaken(d.Init)
			}
		}
	case *ast.ExprStmt:
		fl.scanAddrTaken(x.X)
	case *ast.If:
		fl.scanAddrTaken(x.Cond)
		fl.scanAddrTaken(x.Then)
		fl.scanAddrTaken(x.Else)
	case *ast.While:
		fl.scanAddrTaken(x.Cond)
		fl.scanAddrTaken(x.Body)
	case *ast.DoWhile:
		fl.scanAddrTaken(x.Body)
		fl.scanAddrTaken(x.Cond)
	case *ast.For:
		fl.scanAddrTaken(x.Init)
		fl.scanAddrTaken(x.Cond)
		fl.scanAddrTaken(x.Post)
		fl.scanAddrTaken(x.Body)
	case *ast.Switch:
		fl.scanAddrTaken(x.Tag)
		fl.scanAddrTaken(x.Body)
	case *ast.LabeledStmt:
		fl.scanAddrTaken(x.Stmt)
	case *ast.Return:
		fl.scanAddrTaken(x.X)
	case *ast.DynamicRegion:
		fl.scanAddrTaken(x.Body)
	case *ast.Unary:
		if x.Op == token.AMP {
			if id, ok := x.X.(*ast.Ident); ok {
				fl.addrTaken[id.Name] = true
				return
			}
		}
		fl.scanAddrTaken(x.X)
	case *ast.PostIncDec:
		fl.scanAddrTaken(x.X)
	case *ast.Binary:
		fl.scanAddrTaken(x.L)
		fl.scanAddrTaken(x.R)
	case *ast.Assign:
		fl.scanAddrTaken(x.L)
		fl.scanAddrTaken(x.R)
	case *ast.Cond:
		fl.scanAddrTaken(x.C)
		fl.scanAddrTaken(x.T)
		fl.scanAddrTaken(x.F)
	case *ast.Call:
		for _, a := range x.Args {
			fl.scanAddrTaken(a)
		}
	case *ast.Index:
		fl.scanAddrTaken(x.X)
		fl.scanAddrTaken(x.I)
	case *ast.Field:
		fl.scanAddrTaken(x.X)
	case *ast.Cast:
		fl.scanAddrTaken(x.X)
	}
}

// ------------------------------------------------------------ statements

func (fl *funcLowerer) block(b *ast.Block) {
	fl.pushScope()
	for _, s := range b.Stmts {
		fl.stmt(s)
	}
	fl.popScope()
}

func (fl *funcLowerer) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.Block:
		fl.block(x)
	case *ast.EmptyStmt:
	case *ast.DeclStmt:
		for _, d := range x.Decls {
			fl.localDecl(d)
		}
	case *ast.ExprStmt:
		fl.expr(x.X)
	case *ast.If:
		fl.ifStmt(x)
	case *ast.While:
		fl.whileStmt(x)
	case *ast.DoWhile:
		fl.doWhileStmt(x)
	case *ast.For:
		fl.forStmt(x)
	case *ast.Switch:
		fl.switchStmt(x)
	case *ast.Case:
		fl.errorf(x.P, "case label outside switch")
	case *ast.Break:
		if len(fl.breakTargets) == 0 {
			fl.errorf(x.P, "break outside loop or switch")
			return
		}
		fl.emit(&ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{fl.breakTargets[len(fl.breakTargets)-1]}})
	case *ast.Continue:
		if len(fl.continueTargets) == 0 {
			fl.errorf(x.P, "continue outside loop")
			return
		}
		fl.emit(&ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{fl.continueTargets[len(fl.continueTargets)-1]}})
	case *ast.Goto:
		fl.emit(&ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{fl.labelBlock(x.Label)}})
	case *ast.LabeledStmt:
		lb := fl.labelBlock(x.Label)
		fl.startBlock(lb)
		fl.stmt(x.Stmt)
	case *ast.Return:
		fl.returnStmt(x)
	case *ast.DynamicRegion:
		fl.dynamicRegion(x)
	default:
		fl.errorf(s.Pos(), "unhandled statement")
	}
}

// labelBlock returns (creating on demand) the block for a goto label.
// Label blocks inherit the region/loop context of their first mention; a
// mismatch (goto across a region boundary) is rejected later by
// checkRegionEdges.
func (fl *funcLowerer) labelBlock(name string) *ir.Block {
	if b, ok := fl.labelBlocks[name]; ok {
		return b
	}
	b := fl.newBlock()
	fl.labelBlocks[name] = b
	return b
}

func (fl *funcLowerer) localDecl(d *ast.VarDecl) {
	t := fl.resolveType(d.Type)
	lc := &local{name: d.Name, typ: t}
	switch {
	case !t.IsScalar():
		lc.onStack = true
		lc.slot = fl.allocSlots(t.Size())
	case fl.addrTaken[d.Name]:
		lc.onStack = true
		lc.slot = fl.allocSlots(1)
	default:
		lc.val = fl.f.NewValue(d.Name, t)
	}
	fl.define(lc)
	if d.Init != nil {
		v, vt := fl.expr(d.Init)
		v = fl.convert(d.P, v, vt, scalarOf(t))
		fl.storeLocal(lc, v)
	} else if !lc.onStack {
		// Define register locals to zero so SSA renaming always finds a
		// dominating definition.
		z := &ir.Instr{Op: ir.OpConst, Const: 0, Typ: t, Dst: lc.val}
		fl.emit(z)
	}
}

// scalarOf maps aggregate types to int for initializer conversion purposes.
func scalarOf(t *types.Type) *types.Type {
	if t.IsScalar() {
		return t
	}
	return types.IntType
}

func (fl *funcLowerer) storeLocal(lc *local, v ir.Value) {
	if lc.onStack {
		addr := fl.emitV(&ir.Instr{Op: ir.OpStackAddr, Slot: lc.slot, Typ: types.PointerTo(lc.typ)})
		fl.emit(&ir.Instr{Op: ir.OpStore, Args: []ir.Value{addr, v}, Typ: lc.typ})
		return
	}
	fl.emit(&ir.Instr{Op: ir.OpCopy, Dst: lc.val, Args: []ir.Value{v}, Typ: lc.typ})
}

func (fl *funcLowerer) ifStmt(x *ast.If) {
	thenB := fl.newBlock()
	exitB := fl.newBlock()
	elseB := exitB
	if x.Else != nil {
		elseB = fl.newBlock()
	}
	fl.cond(x.Cond, thenB, elseB)
	fl.cur = thenB
	fl.stmt(x.Then)
	fl.startBlockOrNil(exitB)
	if x.Else != nil {
		fl.cur = elseB
		fl.stmt(x.Else)
		fl.startBlockOrNil(exitB)
	}
	fl.cur = exitB
}

// startBlockOrNil jumps to b if control can fall through, else does nothing.
func (fl *funcLowerer) startBlockOrNil(b *ir.Block) {
	if fl.cur != nil {
		fl.emit(&ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{b}})
	}
}

func (fl *funcLowerer) whileStmt(x *ast.While) {
	head := fl.newBlock()
	body := fl.newBlock()
	exit := fl.newBlock()
	fl.startBlock(head)
	fl.cond(x.Cond, body, exit)
	fl.cur = body
	fl.breakTargets = append(fl.breakTargets, exit)
	fl.continueTargets = append(fl.continueTargets, head)
	fl.stmt(x.Body)
	fl.breakTargets = fl.breakTargets[:len(fl.breakTargets)-1]
	fl.continueTargets = fl.continueTargets[:len(fl.continueTargets)-1]
	fl.startBlockOrNil(head)
	fl.cur = exit
}

func (fl *funcLowerer) doWhileStmt(x *ast.DoWhile) {
	body := fl.newBlock()
	condB := fl.newBlock()
	exit := fl.newBlock()
	fl.startBlock(body)
	fl.breakTargets = append(fl.breakTargets, exit)
	fl.continueTargets = append(fl.continueTargets, condB)
	fl.stmt(x.Body)
	fl.breakTargets = fl.breakTargets[:len(fl.breakTargets)-1]
	fl.continueTargets = fl.continueTargets[:len(fl.continueTargets)-1]
	fl.startBlockOrNil(condB)
	fl.cur = condB
	fl.cond(x.Cond, body, exit)
	fl.cur = exit
}

func (fl *funcLowerer) forStmt(x *ast.For) {
	fl.pushScope()
	if x.Init != nil {
		fl.stmt(x.Init)
	}

	var loop *ir.Loop
	if x.Unrolled {
		if fl.region == nil {
			fl.errorf(x.P, "unrolled for outside a dynamicRegion")
		} else {
			loop = &ir.Loop{ID: fl.loopSeq, Region: fl.region}
			fl.loopSeq++
			if len(fl.loopStack) > 0 {
				loop.Parent = fl.loopStack[len(fl.loopStack)-1]
			}
			fl.region.Loops = append(fl.region.Loops, loop)
			fl.loopStack = append(fl.loopStack, loop)
		}
	}

	head := fl.newBlock()
	body := fl.newBlock()
	latch := fl.newBlock()
	// The exit block lives *outside* the unrolled loop (it is where
	// EXIT_LOOP transfers), so it must not carry the loop mark.
	var exit *ir.Block
	if loop != nil {
		fl.loopStack = fl.loopStack[:len(fl.loopStack)-1]
		exit = fl.newBlock()
		fl.loopStack = append(fl.loopStack, loop)
	} else {
		exit = fl.newBlock()
	}
	fl.startBlock(head)
	if x.Cond != nil {
		fl.cond(x.Cond, body, exit)
	} else {
		fl.emit(&ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{body}})
	}

	fl.cur = body
	fl.breakTargets = append(fl.breakTargets, exit)
	fl.continueTargets = append(fl.continueTargets, latch)
	fl.stmt(x.Body)
	fl.breakTargets = fl.breakTargets[:len(fl.breakTargets)-1]
	fl.continueTargets = fl.continueTargets[:len(fl.continueTargets)-1]
	fl.startBlockOrNil(latch)
	fl.cur = latch
	if x.Post != nil {
		fl.expr(x.Post)
	}
	fl.emit(&ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{head}})

	if loop != nil {
		loop.Head = head
		loop.Latch = latch
		fl.loopStack = fl.loopStack[:len(fl.loopStack)-1]
	}
	fl.cur = exit
	fl.popScope()
}

func (fl *funcLowerer) returnStmt(x *ast.Return) {
	ret := fl.f.Typ.Ret
	if x.X == nil {
		if ret.Kind != types.Void {
			fl.errorf(x.P, "missing return value")
		}
		fl.emit(&ir.Instr{Op: ir.OpRet})
		return
	}
	v, vt := fl.expr(x.X)
	v = fl.convert(x.P, v, vt, ret)
	fl.emit(&ir.Instr{Op: ir.OpRet, Args: []ir.Value{v}})
}

func (fl *funcLowerer) switchStmt(x *ast.Switch) {
	tag, tt := fl.expr(x.Tag)
	if !tt.IsInteger() {
		fl.errorf(x.P, "switch tag must be integer, got %s", tt)
	}
	exit := fl.newBlock()

	// First pass: find case labels at the top level of the switch body.
	type caseInfo struct {
		val       int64
		isDefault bool
		block     *ir.Block
	}
	var cases []caseInfo
	caseBlock := map[ast.Stmt]*ir.Block{}
	for _, s := range x.Body.Stmts {
		if c, ok := s.(*ast.Case); ok {
			ci := caseInfo{isDefault: c.IsDefault, block: fl.newBlock()}
			if !c.IsDefault {
				v, ok := constEval(c.Value)
				if !ok {
					fl.errorf(c.P, "case value must be a constant expression")
				}
				ci.val = v
			}
			cases = append(cases, ci)
			caseBlock[s] = ci.block
		}
	}

	// Dispatch.
	sw := &ir.Instr{Op: ir.OpSwitch, Args: []ir.Value{tag}}
	defaultB := exit
	for _, ci := range cases {
		if ci.isDefault {
			defaultB = ci.block
			continue
		}
		sw.Cases = append(sw.Cases, ci.val)
		sw.Targets = append(sw.Targets, ci.block)
	}
	sw.Targets = append(sw.Targets, defaultB)
	fl.emit(sw)

	// Second pass: lower the body with fall-through between cases.
	fl.cur = nil
	fl.breakTargets = append(fl.breakTargets, exit)
	fl.pushScope()
	for _, s := range x.Body.Stmts {
		if b, ok := caseBlock[s]; ok {
			fl.startBlock(b)
			continue
		}
		fl.stmt(s)
	}
	fl.popScope()
	fl.breakTargets = fl.breakTargets[:len(fl.breakTargets)-1]
	fl.startBlockOrNil(exit)
	fl.cur = exit
}

// constEval evaluates simple constant expressions for case labels.
func constEval(e ast.Expr) (int64, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return x.Val, true
	case *ast.Unary:
		if v, ok := constEval(x.X); ok {
			switch x.Op {
			case token.MINUS:
				return -v, true
			case token.TILDE:
				return ^v, true
			}
		}
	case *ast.Binary:
		l, ok1 := constEval(x.L)
		r, ok2 := constEval(x.R)
		if ok1 && ok2 {
			switch x.Op {
			case token.PLUS:
				return l + r, true
			case token.MINUS:
				return l - r, true
			case token.STAR:
				return l * r, true
			case token.SHL:
				return l << uint(r&63), true
			case token.PIPE:
				return l | r, true
			}
		}
	}
	return 0, false
}

func (fl *funcLowerer) dynamicRegion(x *ast.DynamicRegion) {
	if fl.region != nil {
		fl.errorf(x.P, "nested dynamicRegion is not supported")
		fl.block(x.Body)
		return
	}
	r := &ir.Region{ID: fl.regionSeq, Fn: fl.f}
	fl.regionSeq++
	fl.f.Regions = append(fl.f.Regions, r)

	resolve := func(names []string) []ir.Value {
		var vs []ir.Value
		for _, n := range names {
			lc := fl.lookup(n)
			if lc == nil {
				fl.errorf(x.P, "dynamicRegion: undefined variable %s", n)
				continue
			}
			if lc.onStack {
				fl.errorf(x.P, "dynamicRegion: annotated constant %s must not be address-taken or an aggregate", n)
				continue
			}
			vs = append(vs, lc.val)
		}
		return vs
	}
	r.Auto = x.Auto
	r.KeyNames = x.Keys
	r.ConstNames = x.Consts
	r.KeyVars = resolve(x.Keys)
	// Keys are run-time constants too (paper section 2).
	r.ConstVars = append(resolve(x.Keys), resolve(x.Consts)...)

	entry := fl.newBlock()
	entry.Region = r // boundary block belongs to the region
	r.Entry = entry
	fl.startBlock(entry)

	fl.region = r
	bodyEntry := fl.newBlock()
	fl.startBlock(bodyEntry)
	fl.block(x.Body)
	fl.region = nil

	exit := fl.newBlock()
	r.Exit = exit
	fl.startBlockOrNil(exit)
	fl.cur = exit
}

// checkRegionEdges rejects control-flow edges that enter a dynamic region
// other than through its entry block (e.g. a goto from outside).
func (fl *funcLowerer) checkRegionEdges() {
	for _, b := range fl.f.Blocks {
		for _, s := range b.Succs() {
			if s.Region != nil && b.Region != s.Region && s != s.Region.Entry {
				fl.errorf(token.Pos{}, "%s: control enters dynamic region %d other than at its entry",
					fl.f.Name, s.Region.ID)
			}
		}
	}
}
