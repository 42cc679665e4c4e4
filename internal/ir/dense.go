package ir

import "math/bits"

// Dense per-function tables.
//
// Values and block IDs are small dense integers per function (Value ids
// run 1..NumValues-1, block IDs 0..NumBlockIDs-1), so per-value and
// per-block facts live in slices and bitsets indexed by them rather than
// in Go maps. A Scratch holds the backing storage of those tables for one
// compile and hands it out again pass after pass, so a compile allocates
// them once instead of once per pass and per function.

// Bitset is a set of small non-negative integers, one bit each.
type Bitset []uint64

// BitsetWords is the number of words a Bitset over 0..n-1 needs.
func BitsetWords(n int) int { return (n + 63) >> 6 }

// NewBitset returns an empty set over 0..n-1.
func NewBitset(n int) Bitset { return make(Bitset, BitsetWords(n)) }

// Has reports whether i is in the set; integers beyond its size are not.
func (s Bitset) Has(i int) bool {
	w := i >> 6
	return i >= 0 && w < len(s) && s[w]&(1<<(uint(i)&63)) != 0
}

// Add puts i into the set; i must be within its size.
func (s Bitset) Add(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Next returns the smallest member >= i, or -1 when there is none, so
// `for i := s.Next(0); i >= 0; i = s.Next(i + 1)` visits the members in
// ascending order.
func (s Bitset) Next(i int) int {
	if i < 0 {
		i = 0
	}
	w := i >> 6
	if w >= len(s) {
		return -1
	}
	x := s[w] >> (uint(i) & 63)
	if x != 0 {
		return i + bits.TrailingZeros64(x)
	}
	for w++; w < len(s); w++ {
		if s[w] != 0 {
			return w<<6 + bits.TrailingZeros64(s[w])
		}
	}
	return -1
}

// Len returns the number of members.
func (s Bitset) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// BitMatrix is one Bitset per row (a block ID, say) over a shared column
// range (values), stored in a single slice.
type BitMatrix struct {
	bits   Bitset
	stride int
}

// Row returns row i; writes through it update the matrix.
func (m BitMatrix) Row(i int) Bitset { return m.bits[i*m.stride : (i+1)*m.stride] }

// Scratch is the reusable backing store for the dense tables of one
// compile. It is owned by one goroutine at a time: core.Compile makes one
// per compile and a CompileBatch worker one for all of its programs. A
// table taken from it is valid until the Release of the Mark taken before
// it, and nothing taken from it may outlive the compile. A nil *Scratch is
// valid everywhere one is accepted: every table is then freshly made.
type Scratch struct {
	words  arena[uint64]
	ints   arena[int32]
	blocks arena[*Block]
	values arena[Value]
	dom    DomTree
}

// arena hands out zeroed slices of a growing buffer. Growing replaces the
// buffer; slices handed out before keep the old one alive, so they stay
// valid, and the new buffer serves the next takes.
type arena[T any] struct {
	buf []T
	n   int
}

func (a *arena[T]) take(n int) []T {
	if a.n+n > len(a.buf) {
		a.buf = make([]T, max(2*len(a.buf), a.n+n, 256))
	}
	s := a.buf[a.n : a.n+n : a.n+n]
	a.n += n
	clear(s)
	return s
}

// Mark records how much of a Scratch is in use.
type Mark struct{ words, ints, blocks, values int }

// Mark returns the current use, for a later Release.
func (s *Scratch) Mark() Mark {
	if s == nil {
		return Mark{}
	}
	return Mark{s.words.n, s.ints.n, s.blocks.n, s.values.n}
}

// Release hands back every table taken since m was marked.
func (s *Scratch) Release(m Mark) {
	if s == nil {
		return
	}
	s.words.n, s.ints.n, s.blocks.n, s.values.n = m.words, m.ints, m.blocks, m.values
}

// Bits returns an empty Bitset over 0..n-1.
func (s *Scratch) Bits(n int) Bitset {
	if s == nil {
		return NewBitset(n)
	}
	return s.words.take(BitsetWords(n))
}

// BitMatrix returns an empty rows × cols bit matrix.
func (s *Scratch) BitMatrix(rows, cols int) BitMatrix {
	w := BitsetWords(cols)
	if s == nil {
		return BitMatrix{bits: make(Bitset, rows*w), stride: w}
	}
	return BitMatrix{bits: s.words.take(rows * w), stride: w}
}

// Int32s returns n zeroed int32s.
func (s *Scratch) Int32s(n int) []int32 {
	if s == nil {
		return make([]int32, n)
	}
	return s.ints.take(n)
}

// Blocks returns n nil block slots.
func (s *Scratch) Blocks(n int) []*Block {
	if s == nil {
		return make([]*Block, n)
	}
	return s.blocks.take(n)
}

// Values returns n zero values.
func (s *Scratch) Values(n int) []Value {
	if s == nil {
		return make([]Value, n)
	}
	return s.values.take(n)
}

// NumBlockIDs returns one more than the largest block ID f has handed
// out: block IDs index tables of this length. Removed blocks leave gaps.
func (f *Func) NumBlockIDs() int { return f.numBlocks }
