package ir

// Dominance computation (Cooper/Harvey/Kennedy iterative algorithm) and
// CFG-editing helpers.

// DomTree holds immediate dominators, dominator-tree children and
// dominance frontiers of the blocks reachable from a function's entry.
// Blocks are numbered by their reverse-postorder position; children and
// frontiers are stored compressed (one offset table, one list each).
type DomTree struct {
	rpo      []*Block // reachable blocks in reverse postorder
	pos      []int32  // block ID -> RPO position, -1 when unreachable
	idom     []int32  // RPO position -> idom's position, -1 for the entry
	kidStart []int32  // RPO position -> offset into kids (len(rpo)+1 entries)
	kids     []*Block
	dfStart  []int32 // RPO position -> offset into df (len(rpo)+1 entries)
	df       []*Block
}

// BuildDomTree computes the dominator tree and dominance frontiers for the
// blocks reachable from f's entry (Cooper/Harvey/Kennedy). With a non-nil
// s the tree lives in s: it is valid until the Release of the Mark taken
// before the call, or the next BuildDomTree on s, whichever is first.
func BuildDomTree(f *Func, s *Scratch) *DomTree {
	var t *DomTree
	if s != nil {
		t = &s.dom
	} else {
		t = new(DomTree)
	}
	rpo := s.ReversePostorder(f)
	n := len(rpo)
	pos := s.Int32s(f.numBlocks)
	for i := range pos {
		pos[i] = -1
	}
	for i, b := range rpo {
		pos[b.ID] = int32(i)
	}
	posOf := func(b *Block) int32 {
		if b.ID < len(pos) {
			return pos[b.ID]
		}
		return -1
	}
	idom := s.Int32s(n)
	for i := range idom {
		idom[i] = -1
	}
	idom[0] = 0

	intersect := func(a, b int32) int32 {
		for a != b {
			for a > b {
				a = idom[a]
			}
			for b > a {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for i := 1; i < n; i++ {
			newIdom := int32(-1)
			for _, p := range rpo[i].Preds {
				q := posOf(p)
				if q < 0 || idom[q] < 0 {
					continue // unreachable or not yet processed
				}
				if newIdom < 0 {
					newIdom = q
				} else {
					newIdom = intersect(q, newIdom)
				}
			}
			if newIdom >= 0 && idom[i] != newIdom {
				idom[i] = newIdom
				changed = true
			}
		}
	}
	idom[0] = -1

	// Children, in reverse postorder: count, prefix-sum, fill.
	kidStart := s.Int32s(n + 1)
	for i := 1; i < n; i++ {
		kidStart[idom[i]+1]++
	}
	for i := 0; i < n; i++ {
		kidStart[i+1] += kidStart[i]
	}
	kids := s.Blocks(n)
	fill := s.Int32s(n)
	copy(fill, kidStart[:n])
	for i := 1; i < n; i++ {
		d := idom[i]
		kids[fill[d]] = rpo[i]
		fill[d]++
	}

	// Dominance frontiers: walk up from each predecessor of every join
	// block to the join's idom. The walk runs twice, first counting and
	// then filling, so each block's frontier keeps discovery order; last
	// records the join a block was last added for, which deduplicates.
	dfStart := s.Int32s(n + 1)
	last := s.Int32s(n)
	frontiers := func(add func(runner, join int32)) {
		for i := range last {
			last[i] = -1
		}
		for i, b := range rpo {
			if len(b.Preds) < 2 {
				continue
			}
			for _, p := range b.Preds {
				runner := posOf(p)
				for runner >= 0 && runner != idom[i] {
					if last[runner] != int32(i) {
						last[runner] = int32(i)
						add(runner, int32(i))
					}
					runner = idom[runner]
				}
			}
		}
	}
	frontiers(func(runner, _ int32) { dfStart[runner+1]++ })
	for i := 0; i < n; i++ {
		dfStart[i+1] += dfStart[i]
	}
	df := s.Blocks(int(dfStart[n]))
	copy(fill, dfStart[:n])
	frontiers(func(runner, join int32) {
		df[fill[runner]] = rpo[join]
		fill[runner]++
	})

	*t = DomTree{rpo: rpo, pos: pos, idom: idom, kidStart: kidStart, kids: kids,
		dfStart: dfStart, df: df}
	return t
}

// position returns b's reverse-postorder position, or -1 when b is
// unreachable or was not part of the function when the tree was built.
func (t *DomTree) position(b *Block) int32 {
	if b == nil || b.ID >= len(t.pos) {
		return -1
	}
	return t.pos[b.ID]
}

// Idom returns b's immediate dominator, or nil for the entry and for
// unreachable blocks.
func (t *DomTree) Idom(b *Block) *Block {
	if p := t.position(b); p >= 0 && t.idom[p] >= 0 {
		return t.rpo[t.idom[p]]
	}
	return nil
}

// Children returns the blocks b immediately dominates, in reverse
// postorder.
func (t *DomTree) Children(b *Block) []*Block {
	p := t.position(b)
	if p < 0 {
		return nil
	}
	return t.kids[t.kidStart[p]:t.kidStart[p+1]]
}

// Frontier returns b's dominance frontier.
func (t *DomTree) Frontier(b *Block) []*Block {
	p := t.position(b)
	if p < 0 {
		return nil
	}
	return t.df[t.dfStart[p]:t.dfStart[p+1]]
}

// Dominates reports whether a dominates b (reflexively). Unreachable
// blocks dominate only themselves.
func (t *DomTree) Dominates(a, b *Block) bool {
	if a == b {
		return true
	}
	pa, pb := t.position(a), t.position(b)
	if pa < 0 || pb < 0 {
		return false
	}
	for pb > pa {
		pb = t.idom[pb]
	}
	return pb == pa
}

// SplitCriticalEdges inserts an empty block on every edge whose source has
// multiple successors and whose destination has multiple predecessors.
// Inserted blocks inherit the region/template/loop marks of the edge source
// so that splitter invariants (template vs. set-up membership) survive.
// Back edges of unrolled loops are preserved: the new block becomes the
// latch if the split edge was latch->head.
func (f *Func) SplitCriticalEdges() {
	blocks := append([]*Block(nil), f.Blocks...)
	for _, b := range blocks {
		term := b.Term()
		if term == nil || len(term.Targets) < 2 {
			continue
		}
		// Dynamic-region boundary edges are virtual (the runtime transfers
		// control); they must not be split.
		if term.Op == OpDynEnter || term.Op == OpDynStitch {
			continue
		}
		for ti, s := range term.Targets {
			if len(s.Preds) < 2 {
				continue
			}
			nb := f.NewBlock()
			nb.Region = b.Region
			nb.Template = b.Template
			nb.Setup = b.Setup
			nb.Loops = append([]*Loop(nil), b.Loops...)
			nb.Append(&Instr{Op: OpJump, Targets: []*Block{s}})
			term.Targets[ti] = s
			// Rewire: b -> nb -> s.
			term.Targets[ti] = nb
			nb.Preds = []*Block{b}
			if i := s.predIndex(b); i >= 0 {
				s.Preds[i] = nb
			}
			// Preserve unrolled-loop latch identity.
			for _, r := range f.Regions {
				for _, l := range r.Loops {
					if l.Latch == b && l.Head == s {
						l.Latch = nb
						nb.Loops = append([]*Loop(nil), b.Loops...)
					}
				}
			}
		}
	}
}
