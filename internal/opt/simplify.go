package opt

import (
	"dyncc/internal/ir"
	"dyncc/internal/types"
)

// Simplify applies algebraic identities and compile-time strength reduction
// with literal operands: multiply by a power of two becomes a shift,
// unsigned divide/modulus by a power of two becomes a shift/mask, and
// identity operations become copies. (This is what an ordinary optimizing C
// compiler does statically; the stitcher applies the same rewrites
// dynamically with run-time constant values.)
func Simplify(f *ir.Func, _ *ir.Scratch) int {
	n := 0
	for _, b := range f.Blocks {
		for idx := 0; idx < len(b.Instrs); idx++ {
			in := b.Instrs[idx]
			if in.Dst == 0 || len(in.Args) != 2 {
				continue
			}
			cv, ok := constValOf(f, in.Args[1])
			if !ok {
				// Try the commuted form.
				if in.Op.IsCommutative() {
					if c0, ok0 := constValOf(f, in.Args[0]); ok0 {
						in.Args[0], in.Args[1] = in.Args[1], in.Args[0]
						cv, ok = c0, true
					}
				}
				if !ok {
					continue
				}
			}
			toCopy := func(src ir.Value) {
				in.Op = ir.OpCopy
				in.Args = []ir.Value{src}
				n++
			}
			// shiftBy rewrites in to `op (Args[0], k)` with a fresh
			// constant k inserted before it.
			shiftBy := func(op ir.Op, k int64) {
				kc := f.NewValue("", types.IntType)
				ci := &ir.Instr{Op: ir.OpConst, Const: k, Dst: kc, Typ: types.IntType, Blk: b}
				f.ValueInfo(kc).Def = ci
				b.InsertBefore(idx, ci)
				idx++
				in.Op = op
				in.Args = []ir.Value{in.Args[0], kc}
				n++
			}
			switch in.Op {
			case ir.OpMul:
				switch {
				case cv == 0:
					in.Op = ir.OpConst
					in.Const = 0
					in.Args = nil
					n++
				case cv == 1:
					toCopy(in.Args[0])
				case isPow2(cv):
					shiftBy(ir.OpShl, log2(cv))
				}
			case ir.OpUDiv:
				if cv == 1 {
					toCopy(in.Args[0])
				} else if isPow2(cv) {
					shiftBy(ir.OpLShr, log2(cv))
				}
			case ir.OpUMod:
				if isPow2(cv) {
					mc := f.NewValue("", types.IntType)
					ci := &ir.Instr{Op: ir.OpConst, Const: cv - 1, Dst: mc, Typ: types.IntType, Blk: b}
					f.ValueInfo(mc).Def = ci
					b.InsertBefore(idx, ci)
					idx++
					in.Op = ir.OpAnd
					in.Args = []ir.Value{in.Args[0], mc}
					n++
				}
			case ir.OpAdd, ir.OpSub, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpAShr, ir.OpLShr:
				if cv == 0 {
					toCopy(in.Args[0])
				}
			case ir.OpAnd:
				if cv == 0 {
					in.Op = ir.OpConst
					in.Const = 0
					in.Args = nil
					n++
				} else if cv == -1 {
					toCopy(in.Args[0])
				}
			}
		}
	}
	return n
}

func isPow2(v int64) bool { return v > 0 && v&(v-1) == 0 }

func log2(v int64) int64 {
	k := int64(0)
	for v > 1 {
		v >>= 1
		k++
	}
	return k
}
