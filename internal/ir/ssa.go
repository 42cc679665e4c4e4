package ir

import "slices"

// SSA construction (Cytron et al.: φ insertion at iterated dominance
// frontiers, then renaming along the dominator tree) and destruction
// (two-stage copy insertion, swap- and lost-copy-safe).

// BuildSSA converts f from multiply-assigned virtual registers into SSA
// form (pruned: φs are only inserted where the variable is live). It also
// resolves each region's annotated constant/key variables to the SSA values
// reaching the region entry. Its tables come from s (nil is allowed).
func BuildSSA(f *Func, s *Scratch) {
	if f.SSA {
		return
	}
	f.RemoveUnreachable(s)
	defer s.Release(s.Mark())
	dt := BuildDomTree(f, s)
	liveIn := blockLiveIn(f, s)
	nv := f.NumValues()

	// Definition sites per variable, compressed: the sites of v are
	// sites[siteStart[v]:siteStart[v+1]], in block order.
	siteStart := s.Int32s(nv + 1)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Dst != 0 {
				siteStart[in.Dst+1]++
			}
		}
	}
	maxSites := int32(0)
	for v := 0; v < nv; v++ {
		maxSites = max(maxSites, siteStart[v+1])
		siteStart[v+1] += siteStart[v]
	}
	sites := s.Blocks(int(siteStart[nv]))
	fill := s.Int32s(nv)
	copy(fill, siteStart[:nv])
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Dst != 0 {
				sites[fill[in.Dst]] = b
				fill[in.Dst]++
			}
		}
	}

	// Insert φ nodes at iterated dominance frontiers (pruned by liveness:
	// without pruning, every switch-arm temporary grows a dead φ web
	// around enclosing loop heads), variables in ascending order. A φ's
	// arguments start as its variable and are renamed per predecessor.
	// hasPhi[b.ID] is the variable b was last given a φ (or a visit) for.
	hasPhi := s.Int32s(f.numBlocks)
	work := s.Blocks(int(maxSites) + f.numBlocks)
	for v := 1; v < nv; v++ {
		w := copy(work, sites[siteStart[v]:siteStart[v+1]])
		for w > 0 {
			w--
			b := work[w]
			for _, df := range dt.Frontier(b) {
				if hasPhi[df.ID] == int32(v) {
					continue
				}
				hasPhi[df.ID] = int32(v)
				work[w] = df
				w++
				if !liveIn.Row(df.ID).Has(v) {
					// The variable is dead here; a φ would only feed
					// further dead φs. Still propagate the def site so
					// deeper frontiers are considered.
					continue
				}
				phi := &Instr{
					Op:   OpPhi,
					Dst:  Value(v),
					Args: make([]Value, len(df.Preds)),
					Typ:  f.TypeOf(Value(v)),
				}
				for i := range phi.Args {
					phi.Args[i] = Value(v)
				}
				df.InsertBefore(0, phi)
			}
		}
	}

	// Rename along the dominator tree. Every definition gets a fresh
	// value; grow the value table once for all of them.
	ndefs := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Dst != 0 {
				ndefs++
			}
		}
	}
	f.vals = slices.Grow(f.vals, ndefs)
	rn := renamer{f: f, dt: dt, cur: s.Values(nv), log: s.Values(2 * ndefs)[:0]}
	for _, p := range f.Params {
		rn.cur[p] = p
		f.vals[p].Def = nil
	}
	rn.rename(f.Entry())
	f.SSA = true
}

// renamer is BuildSSA's renaming walk. cur[v] is the SSA value of
// variable v reaching the current block (0: none dominates it); log holds
// (variable, previous value) pairs, unwound when the walk leaves a block.
type renamer struct {
	f   *Func
	dt  *DomTree
	cur []Value
	log []Value
}

// top returns the current SSA value of variable v. A use with no
// dominating definition (a parameter is pre-bound; otherwise a value
// uninitialized along some path) keeps the original id, which acts as an
// implicit entry definition of an undefined value.
func (rn *renamer) top(v Value) Value {
	if c := rn.cur[v]; c != 0 {
		return c
	}
	return v
}

func (rn *renamer) rename(b *Block) {
	f := rn.f
	mark := len(rn.log)
	for _, in := range b.Instrs {
		if in.Op != OpPhi {
			for i, a := range in.Args {
				in.Args[i] = rn.top(a)
			}
		}
		if in.Dst != 0 {
			orig := in.Dst
			info := f.vals[orig]
			nv := f.NewValue(info.Name, info.Typ)
			in.Dst = nv
			f.vals[nv].Def = in
			rn.log = append(rn.log, orig, rn.cur[orig])
			rn.cur[orig] = nv
		}
	}
	// Resolve region annotations at region entries: the SSA values of
	// the annotated variables reaching this point.
	for _, r := range f.Regions {
		if r.Entry == b {
			r.Consts = r.Consts[:0]
			for _, cv := range r.ConstVars {
				r.Consts = append(r.Consts, rn.top(cv))
			}
			r.Keys = r.Keys[:0]
			for _, kv := range r.KeyVars {
				r.Keys = append(r.Keys, rn.top(kv))
			}
		}
	}
	// Fill φ args of successors: each argument still names its variable.
	for _, s := range b.Succs() {
		pi := s.predIndex(b)
		if pi < 0 {
			continue
		}
		for _, phi := range s.Phis() {
			phi.Args[pi] = rn.top(phi.Args[pi])
		}
	}
	for _, c := range rn.dt.Children(b) {
		rn.rename(c)
	}
	for i := len(rn.log) - 2; i >= mark; i -= 2 {
		rn.cur[rn.log[i]] = rn.log[i+1]
	}
	rn.log = rn.log[:mark]
}

// blockLiveIn computes, pre-SSA, which variables are live at each block
// entry (classic backward union dataflow over variables), one row per
// block ID.
func blockLiveIn(f *Func, s *Scratch) BitMatrix {
	nb, nv := f.numBlocks, f.NumValues()
	use, def := s.BitMatrix(nb, nv), s.BitMatrix(nb, nv)
	for _, b := range f.Blocks {
		u, d := use.Row(b.ID), def.Row(b.ID)
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a != 0 && !d.Has(int(a)) {
					u.Add(int(a))
				}
			}
			if in.Dst != 0 {
				d.Add(int(in.Dst))
			}
		}
	}
	liveIn := s.BitMatrix(nb, nv)
	for changed := true; changed; {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			in, u, d := liveIn.Row(b.ID), use.Row(b.ID), def.Row(b.ID)
			for w := range in {
				x := in[w] | u[w]
				for _, sb := range b.Succs() {
					x |= liveIn.Row(sb.ID)[w] &^ d[w]
				}
				if x != in[w] {
					in[w] = x
					changed = true
				}
			}
		}
	}
	return liveIn
}

// DestroySSA eliminates φ instructions by inserting copies. Critical edges
// must already be split. The two-stage scheme (copy into a fresh temporary
// in each predecessor, then copy to the φ destination at the block head)
// is immune to the swap and lost-copy problems.
func DestroySSA(f *Func) {
	if !f.SSA {
		return
	}
	for _, b := range f.Blocks {
		phis := b.Phis()
		if len(phis) == 0 {
			continue
		}
		temps := make([]Value, len(phis))
		for i, phi := range phis {
			temps[i] = f.NewValue(f.vals[phi.Dst].Name+".t", phi.Typ)
		}
		for pi, p := range b.Preds {
			insertAt := len(p.Instrs)
			if p.Term() != nil {
				insertAt--
			}
			for i, phi := range phis {
				cp := &Instr{Op: OpCopy, Dst: temps[i], Args: []Value{phi.Args[pi]}, Typ: phi.Typ}
				p.InsertBefore(insertAt, cp)
				insertAt++
			}
		}
		// Replace φs with copies from the temporaries.
		for i, phi := range phis {
			phi.Op = OpCopy
			phi.Args = []Value{temps[i]}
			_ = i
		}
	}
	f.SSA = false
}
