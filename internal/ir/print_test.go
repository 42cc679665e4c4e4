package ir

import (
	"strings"
	"testing"

	"dyncc/internal/types"
)

func TestPrinting(t *testing.T) {
	f, bs := buildDiamond()
	BuildSSA(f, nil)
	s := f.String()
	for _, want := range []string{"func d {", "b0:", "phi [", "br v", "ret"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
	_ = bs
}

func TestInstrStringForms(t *testing.T) {
	f := NewFunc("p", types.FuncType(types.VoidType, nil))
	b := f.NewBlock()
	v1 := f.NewValue("", types.IntType)
	v2 := f.NewValue("", types.IntType)
	cases := []struct {
		in   *Instr
		want string
	}{
		{&Instr{Op: OpConst, Dst: v1, Const: 7}, "const 7"},
		{&Instr{Op: OpFConst, Dst: v1, F: 2.5}, "fconst 2.5"},
		{&Instr{Op: OpGlobalAddr, Dst: v1, Sym: "g"}, "globaladdr g"},
		{&Instr{Op: OpStackAddr, Dst: v1, Slot: 3}, "stackaddr #3"},
		{&Instr{Op: OpLoad, Dst: v1, Args: []Value{v2}, Const: 2}, "load [v"},
		{&Instr{Op: OpLoad, Dst: v1, Args: []Value{v2}, Dynamic: true}, "load dynamic"},
		{&Instr{Op: OpStore, Args: []Value{v1, v2}, Const: 1}, "store ["},
		{&Instr{Op: OpCall, Sym: "f", Args: []Value{v1}}, "call f(v"},
		{&Instr{Op: OpRet}, "ret"},
		{&Instr{Op: OpJump, Targets: []*Block{b}}, "jump b0"},
		{&Instr{Op: OpSwitch, Args: []Value{v1}, Cases: []int64{1},
			Targets: []*Block{b, b}}, "switch v"},
		{&Instr{Op: OpTblStore, Args: []Value{v1}, Slot: 2}, "tblstore region[2]"},
	}
	for _, tc := range cases {
		if got := tc.in.String(); !strings.Contains(got, tc.want) {
			t.Errorf("got %q, want substring %q", got, tc.want)
		}
	}
}

func TestOpPredicates(t *testing.T) {
	if !OpBr.IsTerminator() || OpAdd.IsTerminator() {
		t.Error("IsTerminator")
	}
	if !OpAdd.IsPureNonTrapping() || OpDiv.IsPureNonTrapping() ||
		OpLoad.IsPureNonTrapping() || OpCall.IsPureNonTrapping() {
		t.Error("IsPureNonTrapping (div/load/call must be excluded)")
	}
	if !OpMul.IsCommutative() || OpSub.IsCommutative() {
		t.Error("IsCommutative")
	}
}
