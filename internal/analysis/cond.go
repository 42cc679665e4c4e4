// Package analysis implements the paper's pair of interconnected dataflow
// analyses (section 3.1, Appendix A): run-time constants identification and
// reachability conditions. Reachability conditions are disjunctions of
// conjunctions of constant-branch outcomes, represented as sets of sets,
// and are what lets the run-time constants analysis identify constant
// merges even in unstructured control flow.
package analysis

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"dyncc/internal/ir"
)

// Atom is a single branch-outcome condition B→S: constant branch B (a Br or
// Switch terminator, identified by its block) takes successor index S.
type Atom struct {
	Block *ir.Block // block whose terminator is the constant branch
	Succ  int       // index into the terminator's Targets
}

func (a Atom) String() string { return fmt.Sprintf("b%d→%d", a.Block.ID, a.Succ) }

// Conj is a conjunction of atoms, sorted by (block ID, successor) and
// duplicate-free.
type Conj []Atom

// Cond is a reachability condition: a disjunction of conjunctions, in the
// canonical order condTable.normalize defines.
//
//	False (unreachable):  empty disjunction
//	True  (always):       the disjunction containing the empty conjunction
type Cond struct {
	Disj []Conj
}

// IsFalse reports whether c is unreachable.
func (c Cond) IsFalse() bool { return len(c.Disj) == 0 }

// IsTrue reports whether c is the unconstrained condition.
func (c Cond) IsTrue() bool {
	for _, cj := range c.Disj {
		if len(cj) == 0 {
			return true
		}
	}
	return false
}

// String renders the condition as the paper's set-of-sets notation.
func (c Cond) String() string {
	if c.IsFalse() {
		return "{}"
	}
	var parts []string
	for _, cj := range c.Disj {
		var as []string
		for _, a := range cj {
			as = append(as, a.String())
		}
		parts = append(parts, "{"+strings.Join(as, ",")+"}")
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// MaxConjs bounds the size of a condition: the paper notes worst-case
// exponential growth; in practice conditions stay small. On overflow the
// condition degrades to True (no information, merges treated
// conservatively).
const MaxConjs = 64

// seqSet interns uint32 sequences: equal sequences share one dense ID.
type seqSet struct {
	data  []uint32 // the sequences back to back
	off   []uint32 // sequence id spans data[off[id]:off[id+1]]
	hash  []uint32 // hash of each sequence, for probing and regrowth
	slots []uint32 // open-addressing index: id+1, or 0 when empty
}

// newSeqSet returns an empty set sized for about n sequences.
func newSeqSet(n int) seqSet {
	n = max(n, 16)
	s := seqSet{data: make([]uint32, 0, 2*n), off: make([]uint32, 1, n+1), hash: make([]uint32, 0, n)}
	s.slots = make([]uint32, 1<<bits.Len(uint(2*n)))
	return s
}

func (s *seqSet) len() int { return len(s.off) - 1 }

func (s *seqSet) seq(id uint32) []uint32 { return s.data[s.off[id]:s.off[id+1]] }

func hashSeq(seq []uint32) uint32 {
	h := uint32(2166136261)
	for _, x := range seq {
		h = (h ^ x) * 16777619
	}
	return h ^ h>>15
}

// intern returns the ID of seq, adding a copy of it when it is new.
func (s *seqSet) intern(seq []uint32) uint32 {
	if 4*len(s.off) >= 3*len(s.slots) {
		s.grow()
	}
	h := hashSeq(seq)
	mask := uint32(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := s.slots[i]
		if e == 0 {
			id := uint32(s.len())
			s.data = append(s.data, seq...)
			s.off = append(s.off, uint32(len(s.data)))
			s.hash = append(s.hash, h)
			s.slots[i] = id + 1
			return id
		}
		if s.hash[e-1] == h && slices.Equal(s.seq(e-1), seq) {
			return e - 1
		}
	}
}

func (s *seqSet) grow() {
	n := 2 * len(s.slots)
	s.slots = make([]uint32, n)
	mask := uint32(n - 1)
	for id, h := range s.hash {
		i := h & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = uint32(id) + 1
	}
}

// condTable holds the reachability conditions of one Analyze call as
// interned IDs. Atoms are numbered densely in (block ID, successor) order,
// so a conjunction is a sorted atom-ID list; conjunctions and conditions are
// hash-consed, so equal ones share an ID and equality is an integer compare.
// Every operation works in the table's scratch buffers and allocates only
// when an arena or the intern index grows.
type condTable struct {
	atoms  []Atom
	branch []uint32 // atom → dense index of its branch, ascending with block ID
	rank   []uint32 // atom → position of its "%d:%d;" token in byte order
	twoWay []bool   // atom's branch has exactly two successors
	first  []int32  // input block position → its first atom, or -1

	conjs seqSet // conjunctions: sorted atom IDs
	conds seqSet // conditions: conjunction IDs in canonical order

	falseC, trueC uint32

	cur, next, tmp []uint32
	left           []*ir.Loop
	seen           []uint32 // conjunction → stamp of the last dedup that saw it
	stamp          uint32
}

// scratchCap is the starting capacity of each scratch buffer: enough for
// any condition below the MaxConjs cap.
const scratchCap = 2 * MaxConjs

// newCondTable numbers the atoms of every Br/Switch terminator in blocks.
func newCondTable(blocks []*ir.Block) *condTable {
	var brs []int
	natoms := 0
	for p, b := range blocks {
		if term := b.Term(); term != nil && (term.Op == ir.OpBr || term.Op == ir.OpSwitch) {
			brs = append(brs, p)
			natoms += len(term.Targets)
		}
	}
	slices.SortFunc(brs, func(x, y int) int { return blocks[x].ID - blocks[y].ID })
	t := &condTable{
		atoms:  make([]Atom, 0, natoms),
		branch: make([]uint32, 0, natoms),
		rank:   make([]uint32, natoms),
		twoWay: make([]bool, 0, natoms),
		first:  make([]int32, len(blocks)),
		conjs:  newSeqSet(2 * natoms),
		conds:  newSeqSet(2 * len(blocks)),
	}
	scratch := make([]uint32, 3*scratchCap)
	t.cur, t.next, t.tmp = scratch[:0:scratchCap], scratch[scratchCap:scratchCap:2*scratchCap], scratch[2*scratchCap:2*scratchCap]
	t.seen = make([]uint32, cap(t.conjs.hash))
	for p := range t.first {
		t.first[p] = -1
	}
	for bi, p := range brs {
		b := blocks[p]
		n := len(b.Term().Targets)
		t.first[p] = int32(len(t.atoms))
		for s := 0; s < n; s++ {
			t.atoms = append(t.atoms, Atom{Block: b, Succ: s})
			t.branch = append(t.branch, uint32(bi))
			t.twoWay = append(t.twoWay, n == 2)
		}
	}

	// The canonical order of a condition's conjunctions is the byte order
	// of their keys, each atom written as "%d:%d;" (so b10 sorts before
	// b2). No token is a prefix of another, so comparing keys is comparing
	// token sequences, and each token reduces to its rank.
	order := make([]uint32, natoms)
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(x, y uint32) int {
		var bx, by [48]byte
		return bytes.Compare(appendToken(bx[:0], t.atoms[x]), appendToken(by[:0], t.atoms[y]))
	})
	for r, a := range order {
		t.rank[a] = uint32(r)
	}

	empty := t.conjs.intern(nil)
	t.falseC = t.conds.intern(nil)
	t.trueC = t.conds.intern([]uint32{empty})
	return t
}

func appendToken(dst []byte, a Atom) []byte {
	dst = strconv.AppendInt(dst, int64(a.Block.ID), 10)
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, int64(a.Succ), 10)
	return append(dst, ';')
}

// atom returns the ID of B→succ for the block at input position p.
func (t *condTable) atom(p, succ int) uint32 { return uint32(int(t.first[p]) + succ) }

// and conjoins atom a onto every conjunction of c (the transfer function
// across a constant branch edge).
func (t *condTable) and(c, a uint32) uint32 {
	t.cur = t.cur[:0]
	for _, cj := range t.conds.seq(c) {
		atoms := t.conjs.seq(cj)
		i, found := slices.BinarySearch(atoms, a)
		if found {
			t.cur = append(t.cur, cj)
			continue
		}
		// A conjunction holds at most one atom per branch, and a branch's
		// atoms are consecutive IDs, so a conflicting outcome sits next
		// to a's insertion point.
		if i > 0 && t.branch[atoms[i-1]] == t.branch[a] ||
			i < len(atoms) && t.branch[atoms[i]] == t.branch[a] {
			continue
		}
		t.tmp = append(append(append(t.tmp[:0], atoms[:i]...), a), atoms[i:]...)
		t.cur = append(t.cur, t.conjs.intern(t.tmp))
	}
	return t.normalize()
}

// or disjoins two conditions (the meet at merges), applying the paper's
// simplification {{A→T,cs},{A→F,cs},ds} → {{cs},ds}. The shortcuts return
// what normalize would: it is idempotent on its own output, and True
// absorbs every conjunction.
func (t *condTable) or(c, d uint32) uint32 {
	switch {
	case c == d || d == t.falseC:
		return c
	case c == t.falseC:
		return d
	case c == t.trueC || d == t.trueC:
		return t.trueC
	}
	t.cur = append(append(t.cur[:0], t.conds.seq(c)...), t.conds.seq(d)...)
	return t.normalize()
}

// normalize interns the condition whose conjunctions are t.cur: it dedups
// them, absorbs subsumed conjunctions, merges complementary pairs, applies
// the size cap and sorts into canonical order. The steps and their order
// decide which equivalent form results, so they must not be reordered.
func (t *condTable) normalize() uint32 {
	t.stamp++
	if t.stamp == 0 {
		clear(t.seen)
		t.stamp = 1
	}
	if n := t.conjs.len(); len(t.seen) < n {
		t.seen = append(t.seen, make([]uint32, n-len(t.seen))...)
	}
	conjs := t.cur[:0]
	for _, cj := range t.cur {
		if t.seen[cj] != t.stamp {
			t.seen[cj] = t.stamp
			conjs = append(conjs, cj)
		}
	}

	spare := t.next
	for {
		changed := false
		// Complementary merge: two conjunctions identical except for one
		// atom on the same two-way branch with different successors reduce
		// to the common part. (For n-way switches, all n outcomes must be
		// present; such conjunctions are left alone.)
	merge:
		for i := 0; i < len(conjs); i++ {
			for j := i + 1; j < len(conjs); j++ {
				if m, ok := t.complementMerge(conjs[i], conjs[j]); ok {
					conjs[i] = m
					conjs = append(conjs[:j], conjs[j+1:]...)
					changed = true
					break merge
				}
			}
		}
		// Absorption: drop conjunctions subsumed by weaker ones.
		kept := spare[:0]
		for i, cj := range conjs {
			n := len(t.conjs.seq(cj))
			sub := false
			for k, other := range conjs {
				if k == i {
					continue
				}
				if m := len(t.conjs.seq(other)); (m < n || m == n && k < i) && t.subsumes(other, cj) {
					sub = true
					break
				}
			}
			if !sub {
				kept = append(kept, cj)
			}
		}
		if len(kept) != len(conjs) {
			changed = true
		}
		conjs, spare = kept, conjs
		if !changed {
			break
		}
	}
	t.cur, t.next = conjs, spare
	if len(conjs) > MaxConjs {
		return t.trueC
	}
	for i := 1; i < len(conjs); i++ {
		for j := i; j > 0 && t.keyLess(conjs[j], conjs[j-1]); j-- {
			conjs[j], conjs[j-1] = conjs[j-1], conjs[j]
		}
	}
	return t.conds.intern(conjs)
}

// complementMerge merges x and y when they are identical or differ in
// exactly one atom on the same two-way branch.
func (t *condTable) complementMerge(x, y uint32) (uint32, bool) {
	if x == y {
		return x, true
	}
	ax, ay := t.conjs.seq(x), t.conjs.seq(y)
	if len(ax) != len(ay) {
		return 0, false
	}
	diff := -1
	for i := range ax {
		if ax[i] != ay[i] {
			if diff >= 0 {
				return 0, false
			}
			diff = i
		}
	}
	a, b := ax[diff], ay[diff]
	if t.branch[a] != t.branch[b] || !t.twoWay[a] {
		return 0, false
	}
	t.tmp = append(append(t.tmp[:0], ax[:diff]...), ax[diff+1:]...)
	return t.conjs.intern(t.tmp), true
}

// subsumes reports whether x ⊆ y (x is weaker, so y is redundant in a
// disjunction containing x).
func (t *condTable) subsumes(x, y uint32) bool {
	ay := t.conjs.seq(y)
	i := 0
	for _, a := range t.conjs.seq(x) {
		for i < len(ay) && ay[i] < a {
			i++
		}
		if i >= len(ay) || ay[i] != a {
			return false
		}
	}
	return true
}

// keyLess orders conjunctions by their keys: token ranks compared in
// sequence, a proper prefix first.
func (t *condTable) keyLess(x, y uint32) bool {
	ax, ay := t.conjs.seq(x), t.conjs.seq(y)
	for i := 0; i < len(ax) && i < len(ay); i++ {
		if ax[i] != ay[i] {
			return t.rank[ax[i]] < t.rank[ay[i]]
		}
	}
	return len(ax) < len(ay)
}

// exclusive reports whether c and d cannot both hold: every pair of
// conjunctions contains contradictory atoms (paper Appendix A.2:
// exclusive(cn1, cn2) iff cn1 implies ¬cn2).
func (t *condTable) exclusive(c, d uint32) bool {
	for _, x := range t.conds.seq(c) {
		for _, y := range t.conds.seq(d) {
			if !t.conjExclusive(x, y) {
				return false
			}
		}
	}
	return true
}

// conjExclusive reports whether x and y take different successors of some
// branch.
func (t *condTable) conjExclusive(x, y uint32) bool {
	ax, ay := t.conjs.seq(x), t.conjs.seq(y)
	for i, j := 0, 0; i < len(ax) && j < len(ay); {
		bx, by := t.branch[ax[i]], t.branch[ay[j]]
		switch {
		case bx < by:
			i++
		case bx > by:
			j++
		case ax[i] != ay[j]:
			return true
		default:
			i++
			j++
		}
	}
	return false
}

// stripLeftLoopAtoms removes, from c, atoms whose branch lives in an
// unrolled loop that the edge from → to leaves.
func (t *condTable) stripLeftLoopAtoms(c uint32, from, to *ir.Block) uint32 {
	t.left = t.left[:0]
	for _, l := range from.Loops {
		if !to.InLoop(l) {
			t.left = append(t.left, l)
		}
	}
	if len(t.left) == 0 {
		return c
	}
	t.cur = t.cur[:0]
	for _, cj := range t.conds.seq(c) {
		atoms := t.conjs.seq(cj)
		t.tmp = t.tmp[:0]
		for _, a := range atoms {
			if !t.inLeftLoop(t.atoms[a].Block) {
				t.tmp = append(t.tmp, a)
			}
		}
		if len(t.tmp) != len(atoms) {
			cj = t.conjs.intern(t.tmp)
		}
		t.cur = append(t.cur, cj)
	}
	return t.normalize()
}

func (t *condTable) inLeftLoop(b *ir.Block) bool {
	for _, l := range t.left {
		if b.InLoop(l) {
			return true
		}
	}
	return false
}

// export converts conditions ids to Cond, in order. Equal conditions share
// one Cond and equal conjunctions one Conj, carved from two slabs sized
// exactly: the Result holding them lives as long as the compiled program.
func (t *condTable) export(ids []uint32) []Cond {
	seenCond := make([]bool, t.conds.len())
	seenConj := make([]bool, t.conjs.len())
	ndisj, natoms := 0, 0
	for _, c := range ids {
		if seenCond[c] {
			continue
		}
		seenCond[c] = true
		for _, cj := range t.conds.seq(c) {
			ndisj++
			if !seenConj[cj] {
				seenConj[cj] = true
				natoms += len(t.conjs.seq(cj))
			}
		}
	}
	disj := make([]Conj, 0, ndisj)
	atoms := make([]Atom, 0, natoms)
	conjs := make([]Conj, t.conjs.len())
	conds := make([]Cond, t.conds.len())
	clear(seenCond)
	out := make([]Cond, len(ids))
	for i, c := range ids {
		if !seenCond[c] {
			seenCond[c] = true
			start := len(disj)
			for _, cj := range t.conds.seq(c) {
				if conjs[cj] == nil {
					k := len(atoms)
					for _, a := range t.conjs.seq(cj) {
						atoms = append(atoms, t.atoms[a])
					}
					conjs[cj] = atoms[k:len(atoms):len(atoms)]
				}
				disj = append(disj, conjs[cj])
			}
			if len(disj) > start {
				conds[c] = Cond{Disj: disj[start:len(disj):len(disj)]}
			}
		}
		out[i] = conds[c]
	}
	return out
}
