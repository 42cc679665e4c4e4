package ir

import (
	"fmt"
	"slices"
)

// InlineCall grafts callee's body into caller at the given call site,
// SSA-correctly: parameters substitute to the call's arguments, every
// callee value and block is renumbered fresh in the caller, the call's
// block is split at the call and every callee `ret` becomes a jump to the
// continuation, where the return value materializes as a φ (one arg per
// returning path). Positions are preserved for diagnostics. Both functions
// must be in SSA form; the caller remains in valid SSA form afterwards
// (Verify-clean) — φ argument order is maintained incrementally, never via
// ComputePreds.
//
// Structural requirements (the caller should have screened these via
// analysis.FuncSummary; they are re-checked here because violating them
// silently would corrupt the IR):
//   - callee is not caller (no direct self-inlining),
//   - callee contains no dynamic regions and no stack frame
//     (address-taken locals cannot be dissolved into the caller's frame),
//   - callee has at least one `ret`, with a value iff the call expects one,
//   - argument and parameter counts match.
//
// The walk's tables come from s (nil is allowed).
func InlineCall(caller *Func, call *Instr, callee *Func, s *Scratch) error {
	if call.Op != OpCall || call.Sym != callee.Name {
		return fmt.Errorf("inline: instr is not a call of %s", callee.Name)
	}
	if !caller.SSA || !callee.SSA {
		return fmt.Errorf("inline: %s into %s: both must be in SSA form",
			callee.Name, caller.Name)
	}
	if caller == callee {
		return fmt.Errorf("inline: %s: direct self-inline", caller.Name)
	}
	if len(callee.Regions) > 0 {
		return fmt.Errorf("inline: %s contains dynamic regions", callee.Name)
	}
	if callee.StackSize > 0 {
		return fmt.Errorf("inline: %s has a stack frame", callee.Name)
	}
	if len(call.Args) != len(callee.Params) {
		return fmt.Errorf("inline: %s: %d args, %d params",
			callee.Name, len(call.Args), len(callee.Params))
	}
	b := call.Blk
	if b == nil || b.Fn != caller {
		return fmt.Errorf("inline: call site not in %s", caller.Name)
	}
	ci := -1
	for i, in := range b.Instrs {
		if in == call {
			ci = i
			break
		}
	}
	if ci < 0 {
		return fmt.Errorf("inline: call site detached from its block")
	}

	// Only the reachable subgraph of the callee is grafted.
	defer s.Release(s.Mark())
	reach := s.ReversePostorder(callee)
	if len(callee.Entry().Preds) != 0 {
		return fmt.Errorf("inline: %s entry has predecessors", callee.Name)
	}
	retCount := 0
	for _, cb := range reach {
		for _, in := range cb.Instrs {
			switch in.Op {
			case OpStackAddr:
				return fmt.Errorf("inline: %s takes a stack address", callee.Name)
			case OpDynEnter, OpDynStitch, OpTblStore:
				return fmt.Errorf("inline: %s contains region machinery", callee.Name)
			case OpRet:
				retCount++
				if call.Dst != 0 && len(in.Args) == 0 {
					return fmt.Errorf("inline: %s: value call of void return", callee.Name)
				}
			}
		}
	}
	if retCount == 0 {
		return fmt.Errorf("inline: %s never returns", callee.Name)
	}

	// Value map: parameters bind to the call's arguments; every value the
	// callee defines gets a fresh caller value up front, so forward
	// references (φs naming values defined later) resolve in one pass.
	vmap := s.Values(callee.NumValues())
	for i, p := range callee.Params {
		vmap[p] = call.Args[i]
	}
	for _, cb := range reach {
		for _, in := range cb.Instrs {
			if in.Dst != 0 && vmap[in.Dst] == 0 {
				vi := callee.ValueInfo(in.Dst)
				vmap[in.Dst] = caller.NewValue(vi.Name, vi.Typ)
			}
		}
	}
	mapVal := func(v Value) Value {
		if v <= 0 || int(v) >= len(vmap) {
			return v
		}
		if vmap[v] == 0 {
			// Used but never defined on a reachable path (verifier allows
			// it pre-DCE); keep SSA sane with a fresh undefined value.
			vi := callee.ValueInfo(v)
			vmap[v] = caller.NewValue(vi.Name, vi.Typ)
		}
		return vmap[v]
	}

	// Fresh caller blocks for the grafted body, inheriting the call site's
	// region and unrolled-loop membership (the graft executes exactly where
	// the call did).
	// bmap[cb.ID] is the clone of callee block cb (nil: unreachable).
	loops := append([]*Loop(nil), b.Loops...)
	bmap := s.Blocks(callee.NumBlockIDs())
	for _, cb := range reach {
		nb := caller.NewBlock()
		nb.Region = b.Region
		nb.Loops = loops
		bmap[cb.ID] = nb
	}

	// The continuation: everything after the call moves here, including the
	// terminator; b ends with a jump into the grafted entry.
	cont := caller.NewBlock()
	cont.Region = b.Region
	cont.Loops = loops

	// Clone instructions. Rets become jumps to the continuation; their
	// (mapped) return values line up with cont.Preds for the return φ.
	var retPreds []*Block
	var retVals []Value
	for _, cb := range reach {
		nb := bmap[cb.ID]
		// Predecessors first (φ argument slots align with them). Preds from
		// unreachable blocks are dropped along with their φ args.
		keep := make([]int, 0, len(cb.Preds))
		for pi, p := range cb.Preds {
			if np := bmap[p.ID]; np != nil {
				keep = append(keep, pi)
				nb.Preds = append(nb.Preds, np)
			}
		}
		for _, in := range cb.Instrs {
			if in.Op == OpRet {
				retPreds = append(retPreds, nb)
				if len(in.Args) > 0 {
					retVals = append(retVals, mapVal(in.Args[0]))
				} else {
					retVals = append(retVals, 0)
				}
				nb.Append(&Instr{Op: OpJump, Targets: []*Block{cont}, Pos: in.Pos})
				continue
			}
			ni := &Instr{
				Op:      in.Op,
				Dst:     mapVal(in.Dst),
				Const:   in.Const,
				F:       in.F,
				Sym:     in.Sym,
				Slot:    in.Slot,
				Typ:     in.Typ,
				Dynamic: in.Dynamic,
				Pos:     in.Pos,
			}
			if in.Op == OpPhi {
				ni.Args = make([]Value, 0, len(keep))
				for _, pi := range keep {
					ni.Args = append(ni.Args, mapVal(in.Args[pi]))
				}
			} else if len(in.Args) > 0 {
				ni.Args = make([]Value, len(in.Args))
				for i, a := range in.Args {
					ni.Args[i] = mapVal(a)
				}
			}
			if len(in.Cases) > 0 {
				ni.Cases = append([]int64(nil), in.Cases...)
			}
			if len(in.Targets) > 0 {
				ni.Targets = make([]*Block, len(in.Targets))
				for i, t := range in.Targets {
					ni.Targets[i] = bmap[t.ID]
				}
			}
			nb.Append(ni)
			if ni.Dst != 0 {
				caller.vals[ni.Dst].Def = ni
			}
		}
	}

	// Split b: move the post-call tail (there are no φs past the call) into
	// the continuation and retarget successor pred-edges from b to cont,
	// preserving slot order so successor φs stay aligned.
	tail := b.Instrs[ci+1:]
	b.Instrs = b.Instrs[:ci]
	for _, in := range tail {
		in.Blk = cont
	}
	cont.Instrs = append(cont.Instrs, tail...)
	if t := cont.Term(); t != nil {
		for ti, s := range t.Targets {
			if slices.Contains(t.Targets[:ti], s) {
				continue
			}
			for i, p := range s.Preds {
				if p == b {
					s.Preds[i] = cont
				}
			}
		}
	}
	// The call block's role as an unrolled-loop latch (back edge source)
	// follows its terminator into the continuation.
	for _, r := range caller.Regions {
		for _, l := range r.Loops {
			if l.Latch == b {
				l.Latch = cont
			}
		}
	}
	centry := bmap[callee.Entry().ID]
	b.Append(&Instr{Op: OpJump, Targets: []*Block{centry}, Pos: call.Pos})
	centry.Preds = []*Block{b}
	cont.Preds = retPreds

	// Materialize the return value at the continuation head. Every former
	// use of call.Dst is dominated by cont: the only way past the call site
	// now leads through it.
	if call.Dst != 0 {
		var ret *Instr
		if len(retPreds) == 1 {
			ret = &Instr{Op: OpCopy, Dst: call.Dst, Args: []Value{retVals[0]},
				Typ: call.Typ, Pos: call.Pos}
		} else {
			ret = &Instr{Op: OpPhi, Dst: call.Dst, Args: retVals,
				Typ: call.Typ, Pos: call.Pos}
		}
		cont.InsertBefore(0, ret)
		caller.vals[call.Dst].Def = ret
	}
	return nil
}
