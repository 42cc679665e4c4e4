// Package codegen translates split, optimized IR into virtual-machine code:
// ordinary code for the function segment, and machine-code templates with
// holes plus directive metadata for each dynamic region (paper section 3.4).
package codegen

import (
	"dyncc/internal/ir"
	"dyncc/internal/types"
)

// LowerSwitches rewrites every OpSwitch not in keep into a chain of
// compare-and-branch blocks, preserving φ argument alignment. Constant
// switches inside templates are kept: the stitcher resolves them from the
// table (CONST_BRANCH on an n-way branch).
func LowerSwitches(f *ir.Func, keep map[*ir.Instr]bool) {
	blocks := append([]*ir.Block(nil), f.Blocks...)
	for _, b := range blocks {
		term := b.Term()
		if term == nil || term.Op != ir.OpSwitch || keep[term] {
			continue
		}
		tag := term.Args[0]
		cases := term.Cases
		targets := term.Targets
		def := targets[len(cases)]

		// Edges are rewired in target order (default last), so the k-th
		// edge to a successor updates its k-th predecessor slot from b:
		// duplicate edges each keep their own slot.
		replacePred := func(ti int, old, new *ir.Block) {
			s := targets[ti]
			k := 0
			for _, t := range targets[:ti] {
				if t == s {
					k++
				}
			}
			n := 0
			for i, p := range s.Preds {
				if p == old {
					if n == k {
						s.Preds[i] = new
						return
					}
					n++
				}
			}
		}

		// Build chain blocks c1..c(n-1); the first compare lives in b.
		cur := b
		b.Instrs = b.Instrs[:len(b.Instrs)-1] // drop the switch
		for i := range cases {
			cv := f.NewValue("", types.IntType)
			ci := &ir.Instr{Op: ir.OpConst, Const: cases[i], Dst: cv, Typ: types.IntType}
			ci.Blk = cur
			cur.Instrs = append(cur.Instrs, ci)
			f.ValueInfo(cv).Def = ci
			eq := f.NewValue("", types.IntType)
			ei := &ir.Instr{Op: ir.OpEq, Args: []ir.Value{tag, cv}, Dst: eq, Typ: types.IntType}
			ei.Blk = cur
			cur.Instrs = append(cur.Instrs, ei)
			f.ValueInfo(eq).Def = ei

			var next *ir.Block
			if i == len(cases)-1 {
				next = def
			} else {
				next = f.NewBlock()
				next.Region = b.Region
				next.Template = b.Template
				next.Setup = b.Setup
				next.Loops = append([]*ir.Loop(nil), b.Loops...)
			}
			br := &ir.Instr{Op: ir.OpBr, Args: []ir.Value{eq}, Targets: []*ir.Block{targets[i], next}}
			br.Blk = cur
			cur.Instrs = append(cur.Instrs, br)

			replacePred(i, b, cur)
			if i == len(cases)-1 {
				replacePred(len(cases), b, cur)
			} else {
				next.Preds = []*ir.Block{cur}
				cur = next
			}
		}
		if len(cases) == 0 {
			// Degenerate switch: jump to default.
			j := &ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{def}}
			j.Blk = cur
			cur.Instrs = append(cur.Instrs, j)
		}
	}
}

// Legalize rewrites template instructions so that every hole operand sits
// where the instruction encoding can hold it: the second operand of an
// integer ALU immediate form, or the immediate of a materializing copy
// (LI / large-constant-table load). holes holds the hole values. Must run
// after SSA destruction.
func Legalize(f *ir.Func, holes ir.Bitset) {
	isHole := func(v ir.Value) bool { return holes.Has(int(v)) }
	for _, b := range f.Blocks {
		if !b.Template {
			continue
		}
		var out []*ir.Instr
		materialize := func(v ir.Value) ir.Value {
			t := f.TypeOf(v)
			nv := f.NewValue("", t)
			cp := &ir.Instr{Op: ir.OpCopy, Args: []ir.Value{v}, Dst: nv, Typ: t, Blk: b}
			f.ValueInfo(nv).Def = cp
			out = append(out, cp)
			return nv
		}
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpCopy:
				// Handled directly at emission (LI/LDC).
			case ir.OpBr, ir.OpSwitch:
				// Constant predicates become CONST_BRANCH; nothing to do.
				// (A non-constant branch cannot have a hole predicate.)
			case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpUDiv, ir.OpMod,
				ir.OpUMod, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpAShr,
				ir.OpLShr, ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpULt, ir.OpULe:
				h0, h1 := isHole(in.Args[0]), isHole(in.Args[1])
				intHole := func(v ir.Value) bool {
					t := f.TypeOf(v)
					return t == nil || t.IsInteger()
				}
				if h0 && !h1 {
					if in.Op.IsCommutative() && intHole(in.Args[0]) {
						in.Args[0], in.Args[1] = in.Args[1], in.Args[0]
					} else {
						in.Args[0] = materialize(in.Args[0])
					}
				} else if h0 && h1 {
					in.Args[0] = materialize(in.Args[0])
				}
				if isHole(in.Args[1]) && !intHole(in.Args[1]) {
					in.Args[1] = materialize(in.Args[1])
				}
			default:
				// All other ops need register operands.
				for i, a := range in.Args {
					if isHole(a) {
						in.Args[i] = materialize(a)
					}
				}
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
}
