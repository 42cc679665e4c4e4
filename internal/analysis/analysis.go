package analysis

import (
	"fmt"

	"dyncc/internal/ir"
)

// Result holds the combined solution of the run-time constants and
// reachability analyses over one dynamic region.
type Result struct {
	Region *ir.Region

	// Const holds the SSA values that are run-time constants.
	Const ir.Bitset

	// EdgeReach is the reachability condition on each CFG edge into a
	// region block, keyed by (successor, predecessor index).
	EdgeReach map[EdgeKey]Cond

	// ConstBranch marks Br/Switch terminators whose predicate is a
	// run-time constant.
	ConstBranch map[*ir.Instr]bool

	// Per region block, by position in the region's reverse postorder:
	// posOf[b.ID] is b's position (-1 outside the region), reach the
	// reachability condition at its entry and constMerge its merge flag.
	posOf      []int32
	reach      []Cond
	constMerge []bool
}

// pos returns b's position among the analyzed blocks, or -1.
func (r *Result) pos(b *ir.Block) int {
	if b.ID < len(r.posOf) {
		return int(r.posOf[b.ID])
	}
	return -1
}

// BlockReach returns the reachability condition at b's entry (the zero,
// unreachable condition for blocks outside the region).
func (r *Result) BlockReach(b *ir.Block) Cond {
	if p := r.pos(b); p >= 0 {
		return r.reach[p]
	}
	return Cond{}
}

// ConstMerge reports whether b is a merge block whose predecessors'
// reachability conditions are pairwise mutually exclusive (or an unrolled
// loop head), enabling the idempotent-φ rule.
func (r *Result) ConstMerge(b *ir.Block) bool {
	p := r.pos(b)
	return p >= 0 && r.constMerge[p]
}

// EdgeKey identifies a CFG edge by its destination and the predecessor slot
// (aligned with φ argument order).
type EdgeKey struct {
	To      *ir.Block
	PredIdx int
}

// Analyze runs the paper's interleaved optimistic fixpoint over region r of
// function f. f must be in SSA form. forcedNonConst holds values the caller
// requires to be treated as non-constant (used by the splitter to demote
// values whose set-up computation cannot be scheduled); nil holds none.
// The reverse postorder it starts from comes from s (nil is allowed).
//
// Inside the fixpoint, blocks are addressed by their position in the
// region's reverse postorder, CFG edges by dense slots, and reachability
// conditions by their IDs in a condTable private to this call; the result
// maps are filled once, after convergence.
func Analyze(f *ir.Func, r *ir.Region, forcedNonConst ir.Bitset, s *ir.Scratch) (*Result, error) {
	if !f.SSA {
		return nil, fmt.Errorf("analysis: %s is not in SSA form", f.Name)
	}
	inRegion := func(b *ir.Block) bool { return b != nil && b.Region == r }

	// Region blocks in reverse postorder (within the whole function's RPO).
	mark := s.Mark()
	rpo := s.ReversePostorder(f)
	blocks := make([]*ir.Block, 0, len(rpo))
	for _, b := range rpo {
		if inRegion(b) {
			blocks = append(blocks, b)
		}
	}
	s.Release(mark)
	nb := 0
	for _, b := range blocks {
		nb = max(nb, b.ID+1)
	}
	posOf := make([]int32, nb)
	for i := range posOf {
		posOf[i] = -1
	}
	for p, b := range blocks {
		posOf[b.ID] = int32(p)
	}
	pos := func(b *ir.Block) int {
		if b.ID < len(posOf) {
			return int(posOf[b.ID])
		}
		return -1
	}
	entry := pos(r.Entry)

	// Edge slots: block p's predecessor slot pi (aligned with φ argument
	// order) is edge edgeBase[p]+pi. targetSlot maps each terminator target
	// (block p's ti-th at targetBase[p]+ti) to the slot of its edge, or -1
	// when the target lies outside the region; duplicate targets of one
	// terminator take successive predecessor slots.
	nt := 0
	for _, b := range blocks {
		nt += len(b.Succs())
	}
	// One allocation carved into several tables here and below.
	nblk := len(blocks)
	ints := make([]int, 2*nblk+2+nt)
	edgeBase, targetBase, targetSlot := ints[:nblk+1], ints[nblk+1:2*nblk+2], ints[2*nblk+2:]
	for p, b := range blocks {
		edgeBase[p+1] = edgeBase[p] + len(b.Preds)
		targetBase[p+1] = targetBase[p] + len(b.Succs())
	}
	for p, b := range blocks {
		targets := b.Succs()
		for ti, s := range targets {
			slot := -1
			if q := pos(s); q >= 0 {
				n := 0
				for _, s2 := range targets[:ti] {
					if s2 == s {
						n++
					}
				}
				if pi := nthPredIndex(s, b, n); pi >= 0 {
					slot = edgeBase[q] + pi
				}
			}
			targetSlot[targetBase[p]+ti] = slot
		}
	}

	nv := f.NumValues()
	vals := make([]bool, 3*nv)
	isConst, seed, definedIn := vals[:nv], vals[nv:2*nv], vals[2*nv:]
	for _, v := range r.Consts {
		seed[v] = true
	}

	// Unrolled loop heads are constant merges by decree (exactly one
	// predecessor arc is ever taken per unrolled copy, paper section 3.1).
	flags := make([]bool, 4*nblk)
	loopHead, ordinaryLoopHead := flags[:nblk], flags[nblk:2*nblk]
	constMerge, constBranch := flags[2*nblk:3*nblk], flags[3*nblk:]
	for _, l := range r.Loops {
		if p := pos(l.Head); p >= 0 {
			loopHead[p] = true
		}
	}

	// Heads of loops that are *not* unrolled must be non-constant merges
	// (paper: "the reachability conditions of the loop entry arc and the
	// loop back edge arc will not normally be mutually exclusive" — we make
	// the safe choice unconditionally). Detect back-edge targets with a DFS
	// over the region subgraph.
	if entry >= 0 {
		state := make([]uint8, len(blocks)) // 0 unvisited, 1 on stack, 2 done
		var dfs func(p int)
		dfs = func(p int) {
			state[p] = 1
			for _, s := range blocks[p].Succs() {
				q := pos(s)
				if q < 0 {
					continue
				}
				switch state[q] {
				case 0:
					dfs(q)
				case 1:
					if !loopHead[q] {
						ordinaryLoopHead[q] = true
					}
				}
			}
			state[p] = 2
		}
		dfs(entry)
	}

	// Optimistic initialization: every value defined inside the region is
	// assumed constant; values defined outside are constant iff seeded.
	for _, b := range blocks {
		for _, in := range b.Instrs {
			if in.Dst != 0 {
				definedIn[in.Dst] = true
				isConst[in.Dst] = true
			}
		}
	}
	for _, v := range r.Consts {
		isConst[v] = true
	}
	// Compile-time literal constants are a special case of run-time
	// constants (paper section 3.1 footnote): a literal defined before the
	// region flowing in is constant without annotation.
	for _, b := range blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if definedIn[a] || isConst[a] {
					continue
				}
				if def := f.DefOf(a); def != nil &&
					(def.Op == ir.OpConst || def.Op == ir.OpFConst) {
					isConst[a] = true
				}
			}
		}
	}
	for v := forcedNonConst.Next(0); v >= 0 && v < nv; v = forcedNonConst.Next(v + 1) {
		isConst[v] = false
		seed[v] = false
	}

	allConst := func(vs []ir.Value) bool {
		for _, v := range vs {
			if !isConst[v] {
				return false
			}
		}
		return true
	}
	constPredicate := func(term *ir.Instr) bool {
		switch term.Op {
		case ir.OpBr, ir.OpSwitch:
			return isConst[term.Args[0]]
		}
		return false
	}
	// rooted caches rootedAtGlobal per load address: 0 unknown, 1 no, 2 yes.
	rooted := make([]uint8, nv)
	var walked ir.Bitset // rootedAtGlobal's visited set, made on first use

	t := newCondTable(blocks)
	conds := make([]uint32, nblk+edgeBase[nblk])
	reach, edge := conds[:nblk], conds[nblk:]

	// Interleaved fixpoint: facts only move downward (const→nonconst,
	// conditions toward weaker), so iteration terminates.
	maxRounds := 4*len(blocks) + nv + 16
	for round := 0; ; round++ {
		if round > maxRounds {
			return nil, fmt.Errorf("analysis: fixpoint did not converge in region %d of %s", r.ID, f.Name)
		}
		changed := false

		// --- Reachability pass (forward, least fixpoint over the region).
		for i := range reach {
			reach[i] = t.falseC
		}
		for i := range edge {
			edge[i] = t.falseC
		}
		if entry >= 0 {
			reach[entry] = t.trueC
		}
		for iter := 0; ; iter++ {
			rchanged := false
			for p, b := range blocks {
				term := b.Term()
				if term == nil {
					continue
				}
				cp := constPredicate(term)
				for ti, s := range term.Targets {
					if pos(s) < 0 {
						continue
					}
					ec := reach[p]
					if cp && ec != t.falseC {
						ec = t.and(ec, t.atom(p, ti))
					}
					// Atoms of branches inside an unrolled loop describe a
					// *per-iteration* outcome; once control leaves the loop
					// they no longer denote a single fixed value, so strip
					// them (weakening the condition, which is conservative).
					ec = t.stripLeftLoopAtoms(ec, b, s)
					if slot := targetSlot[targetBase[p]+ti]; slot >= 0 && edge[slot] != ec {
						edge[slot] = ec
						rchanged = true
					}
				}
			}
			for p, b := range blocks {
				if p == entry {
					continue
				}
				nc := t.falseC
				for pi, pb := range b.Preds {
					if !inRegion(pb) {
						// Control entering the region other than at the
						// entry is rejected by lowering; defensively treat
						// as always-reachable.
						nc = t.trueC
						continue
					}
					nc = t.or(nc, edge[edgeBase[p]+pi])
				}
				if reach[p] != nc {
					reach[p] = nc
					rchanged = true
				}
			}
			if !rchanged {
				break
			}
			if iter > (len(blocks)+2)*(MaxConjs+2)*4 {
				return nil, fmt.Errorf("analysis: reachability did not converge")
			}
		}

		// --- Constant merges.
		for p, b := range blocks {
			if loopHead[p] || ordinaryLoopHead[p] {
				constMerge[p] = loopHead[p]
				continue
			}
			cm := true
			base := edgeBase[p]
			for i := 0; i < len(b.Preds) && cm; i++ {
				for j := i + 1; j < len(b.Preds) && cm; j++ {
					if !inRegion(b.Preds[i]) || !inRegion(b.Preds[j]) {
						cm = false
						break
					}
					if !t.exclusive(edge[base+i], edge[base+j]) {
						cm = false
					}
				}
			}
			if constMerge[p] != cm {
				constMerge[p] = cm
				changed = true
			}
		}

		// --- Run-time constants pass (lower values per the flow rules).
		for p, b := range blocks {
			for _, in := range b.Instrs {
				if in.Dst == 0 || !isConst[in.Dst] || seed[in.Dst] {
					continue
				}
				ok := false
				switch in.Op {
				case ir.OpPhi:
					ok = allConst(in.Args) && constMerge[p]
				case ir.OpLoad:
					// Loads through run-time-constant pointers are constant
					// (paper section 3.1) — but global variables cannot be
					// annotated, so their contents must be assumed mutable:
					// a load whose address is rooted at a global is never a
					// run-time constant. Constant global data is shared by
					// passing an annotated pointer instead.
					if a := in.Args[0]; !in.Dynamic && isConst[a] {
						if rooted[a] == 0 {
							rooted[a] = 1
							if walked == nil {
								walked = ir.NewBitset(nv)
							} else {
								clear(walked)
							}
							if rootedAtGlobal(f, a, walked) {
								rooted[a] = 2
							}
						}
						ok = rooted[a] == 1
					}
				case ir.OpCall:
					bi := ir.Builtins[in.Sym]
					ok = bi != nil && bi.Pure && allConst(in.Args)
				case ir.OpStackAddr:
					// The stitched code is cached across invocations of the
					// enclosing function, whose frame address differs per
					// call — stack addresses are never run-time constants.
					ok = false
				default:
					ok = in.Op.IsPureNonTrapping() && allConst(in.Args)
				}
				if !ok {
					isConst[in.Dst] = false
					changed = true
				}
			}
		}

		// --- Constant branches.
		for p, b := range blocks {
			term := b.Term()
			if term == nil {
				continue
			}
			if c := constPredicate(term); constBranch[p] != c {
				constBranch[p] = c
				changed = true
			}
		}

		if !changed {
			break
		}
	}

	exported := t.export(conds) // reach, then edge
	res := &Result{
		Region:      r,
		Const:       ir.NewBitset(nv),
		EdgeReach:   make(map[EdgeKey]Cond, len(edge)),
		ConstBranch: make(map[*ir.Instr]bool, count(constBranch)),
		posOf:       posOf,
		reach:       exported[:nblk],
		constMerge:  constMerge,
	}
	for v, c := range isConst {
		if c {
			res.Const.Add(v)
		}
	}
	for p, b := range blocks {
		if constBranch[p] {
			res.ConstBranch[b.Term()] = true
		}
		for ti, s := range b.Succs() {
			if slot := targetSlot[targetBase[p]+ti]; slot >= 0 {
				q := pos(s)
				res.EdgeReach[EdgeKey{To: s, PredIdx: slot - edgeBase[q]}] = exported[nblk+slot]
			}
		}
	}
	return res, nil
}

func count(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// rootedAtGlobal reports whether the address computation of v involves a
// global's address (bounded def-chain walk over pure address arithmetic).
// seen is the walk's visited set, empty on entry.
func rootedAtGlobal(f *ir.Func, v ir.Value, seen ir.Bitset) bool {
	var walk func(v ir.Value, depth int) bool
	walk = func(v ir.Value, depth int) bool {
		if depth > 64 || seen.Has(int(v)) {
			return false
		}
		seen.Add(int(v))
		def := f.DefOf(v)
		if def == nil {
			return false
		}
		switch def.Op {
		case ir.OpGlobalAddr:
			return true
		case ir.OpCopy, ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpShl, ir.OpPhi:
			for _, a := range def.Args {
				if walk(a, depth+1) {
					return true
				}
			}
		}
		return false
	}
	return walk(v, 0)
}

// nthPredIndex returns the predecessor slot of the n-th occurrence of p in
// s.Preds (duplicate edges from multi-target terminators).
func nthPredIndex(s, p *ir.Block, n int) int {
	for i, q := range s.Preds {
		if q == p {
			if n == 0 {
				return i
			}
			n--
		}
	}
	return -1
}
