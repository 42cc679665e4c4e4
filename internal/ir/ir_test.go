package ir

import (
	"testing"

	"dyncc/internal/types"
)

// buildDiamond constructs:
//
//	b0 -> b1, b2; b1 -> b3; b2 -> b3; b3: ret
func buildDiamond() (*Func, []*Block) {
	f := NewFunc("d", types.FuncType(types.IntType, []*types.Type{types.IntType}))
	p := f.NewValue("p", types.IntType)
	f.Params = append(f.Params, p)
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	x := f.NewValue("x", types.IntType)

	b0.Append(&Instr{Op: OpBr, Args: []Value{p}, Targets: []*Block{b1, b2}})
	c1 := &Instr{Op: OpConst, Const: 1, Dst: x, Typ: types.IntType}
	b1.Append(c1)
	b1.Append(&Instr{Op: OpJump, Targets: []*Block{b3}})
	c2 := &Instr{Op: OpConst, Const: 2, Dst: x, Typ: types.IntType}
	b2.Append(c2)
	b2.Append(&Instr{Op: OpJump, Targets: []*Block{b3}})
	b3.Append(&Instr{Op: OpRet, Args: []Value{x}})
	f.ComputePreds()
	return f, []*Block{b0, b1, b2, b3}
}

func TestDominators(t *testing.T) {
	f, bs := buildDiamond()
	for _, s := range []*Scratch{nil, new(Scratch)} {
		dt := BuildDomTree(f, s)
		if dt.Idom(bs[0]) != nil {
			t.Error("entry should have no idom")
		}
		for _, b := range bs[1:] {
			if dt.Idom(b) != bs[0] {
				t.Errorf("idom(b%d) = %v, want b0", b.ID, dt.Idom(b))
			}
		}
		if kids := dt.Children(bs[0]); len(kids) != 3 {
			t.Errorf("children(b0) = %v, want b1, b2, b3", kids)
		}
		if !dt.Dominates(bs[0], bs[3]) {
			t.Error("b0 should dominate b3")
		}
		if dt.Dominates(bs[1], bs[3]) {
			t.Error("b1 should not dominate b3")
		}
		// Dominance frontier of b1 and b2 is {b3}.
		for _, b := range bs[1:3] {
			df := dt.Frontier(b)
			if len(df) != 1 || df[0] != bs[3] {
				t.Errorf("DF(b%d) = %v", b.ID, df)
			}
		}
	}
}

func TestSSADiamondPhi(t *testing.T) {
	f, bs := buildDiamond()
	BuildSSA(f, nil)
	if err := Verify(f, nil); err != nil {
		t.Fatalf("verify: %v", err)
	}
	phis := bs[3].Phis()
	if len(phis) != 1 {
		t.Fatalf("expected 1 φ at the merge, got %d", len(phis))
	}
	if len(phis[0].Args) != 2 {
		t.Fatalf("φ args: %d", len(phis[0].Args))
	}
}

func TestPrunedSSAOmitsDeadPhi(t *testing.T) {
	// Same diamond, but x is never used after the merge: pruned SSA must
	// not create a φ for it.
	f := NewFunc("d", types.FuncType(types.IntType, []*types.Type{types.IntType}))
	p := f.NewValue("p", types.IntType)
	f.Params = append(f.Params, p)
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	x := f.NewValue("x", types.IntType)
	b0.Append(&Instr{Op: OpBr, Args: []Value{p}, Targets: []*Block{b1, b2}})
	b1.Append(&Instr{Op: OpConst, Const: 1, Dst: x, Typ: types.IntType})
	b1.Append(&Instr{Op: OpJump, Targets: []*Block{b3}})
	b2.Append(&Instr{Op: OpConst, Const: 2, Dst: x, Typ: types.IntType})
	b2.Append(&Instr{Op: OpJump, Targets: []*Block{b3}})
	b3.Append(&Instr{Op: OpRet, Args: []Value{p}})
	f.ComputePreds()
	BuildSSA(f, nil)
	if n := len(b3.Phis()); n != 0 {
		t.Errorf("pruned SSA inserted %d dead φs", n)
	}
}

func TestSSALoop(t *testing.T) {
	// i = 0; while (i < p) i = i + 1; return i
	f := NewFunc("loop", types.FuncType(types.IntType, []*types.Type{types.IntType}))
	p := f.NewValue("p", types.IntType)
	f.Params = append(f.Params, p)
	entry, head, body, exit := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	i := f.NewValue("i", types.IntType)
	cond := f.NewValue("", types.IntType)
	one := f.NewValue("", types.IntType)

	entry.Append(&Instr{Op: OpConst, Const: 0, Dst: i, Typ: types.IntType})
	entry.Append(&Instr{Op: OpJump, Targets: []*Block{head}})
	head.Append(&Instr{Op: OpLt, Args: []Value{i, p}, Dst: cond, Typ: types.IntType})
	head.Append(&Instr{Op: OpBr, Args: []Value{cond}, Targets: []*Block{body, exit}})
	body.Append(&Instr{Op: OpConst, Const: 1, Dst: one, Typ: types.IntType})
	body.Append(&Instr{Op: OpAdd, Args: []Value{i, one}, Dst: i, Typ: types.IntType})
	body.Append(&Instr{Op: OpJump, Targets: []*Block{head}})
	exit.Append(&Instr{Op: OpRet, Args: []Value{i}})
	f.ComputePreds()

	BuildSSA(f, nil)
	if err := Verify(f, nil); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if len(head.Phis()) != 1 {
		t.Fatalf("loop head φs: %d", len(head.Phis()))
	}
	// Execute via the interpreter: result must equal p.
	mod := NewModule()
	mod.AddFunc(f)
	env := NewInterpEnv(mod, 0)
	got, err := env.CallFunc("loop", 7)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("loop(7) = %d", got)
	}

	// Destroying SSA must preserve behaviour.
	f.SplitCriticalEdges()
	DestroySSA(f)
	if f.SSA {
		t.Error("SSA flag still set")
	}
	env2 := NewInterpEnv(mod, 0)
	got2, err := env2.CallFunc("loop", 7)
	if err != nil {
		t.Fatal(err)
	}
	if got2 != 7 {
		t.Errorf("post-DestroySSA loop(7) = %d", got2)
	}
}

func TestVerifyCatchesBadIR(t *testing.T) {
	f := NewFunc("bad", types.FuncType(types.VoidType, nil))
	b := f.NewBlock()
	// Missing terminator.
	b.Append(&Instr{Op: OpConst, Const: 1, Dst: f.NewValue("", types.IntType), Typ: types.IntType})
	if err := Verify(f, nil); err == nil {
		t.Error("expected missing-terminator error")
	}
	b.Append(&Instr{Op: OpRet})
	if err := Verify(f, nil); err != nil {
		t.Errorf("now valid: %v", err)
	}
	// Double definition in SSA form.
	f.SSA = true
	v := f.NewValue("", types.IntType)
	b.InsertBefore(0, &Instr{Op: OpConst, Const: 1, Dst: v, Typ: types.IntType})
	b.InsertBefore(1, &Instr{Op: OpConst, Const: 2, Dst: v, Typ: types.IntType})
	if err := Verify(f, nil); err == nil {
		t.Error("expected SSA redefinition error")
	}
}

func TestRemoveUnreachable(t *testing.T) {
	f := NewFunc("u", types.FuncType(types.VoidType, nil))
	b0 := f.NewBlock()
	dead := f.NewBlock()
	b0.Append(&Instr{Op: OpRet})
	dead.Append(&Instr{Op: OpRet})
	f.ComputePreds()
	f.RemoveUnreachable(nil)
	if len(f.Blocks) != 1 {
		t.Errorf("blocks after removal: %d", len(f.Blocks))
	}
}

func TestSplitCriticalEdges(t *testing.T) {
	f, bs := buildDiamond()
	// Add an extra edge b0 -> b3 making the b0->b3 edge critical.
	term := bs[0].Term()
	term.Targets[1] = bs[3]
	bs[2].Preds = nil
	f.ComputePreds()
	f.RemoveUnreachable(nil)
	before := len(f.Blocks)
	f.SplitCriticalEdges()
	if len(f.Blocks) != before+1 {
		t.Errorf("expected one split block, got %d new", len(f.Blocks)-before)
	}
	if err := Verify(f, nil); err != nil {
		t.Errorf("verify after split: %v", err)
	}
}
