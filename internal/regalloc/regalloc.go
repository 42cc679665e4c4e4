// Package regalloc implements linear-scan register allocation over the
// whole function — including template blocks, so that dynamically-compiled
// code is register-allocated "in the context of its enclosing procedure"
// (paper section 3.3) and stitched code's registers line up with the
// surrounding code at run time.
package regalloc

import (
	"fmt"
	"slices"

	"dyncc/internal/ir"
	"dyncc/internal/vm"
)

// Loc is a value's assigned location.
type Loc struct {
	Reg     vm.Reg
	Spilled bool
	Slot    int // stack slot when spilled
}

// Allocation maps values to locations.
type Allocation struct {
	// Loc is indexed by value; values without a location (holes, and
	// values never touched) read as the zero Loc.
	Loc       []Loc
	FrameSize int // total stack words incl. spills
}

// Verify enables the post-allocation overlap check (cheap; kept on). A
// constant, not a variable: package-level compiler state must be immutable
// so concurrent compilations (core.CompileBatch) share nothing mutable.
const Verify = true

// Spill-shuttle registers reserved for the code generator.
const (
	TempA = vm.Reg(9)
	TempB = vm.Reg(10)
	TempC = vm.Reg(11)
)

// firstAlloc is the first allocatable register; numAlloc is the size of
// the pool firstAlloc..vm.RAllocLast.
const (
	firstAlloc = vm.Reg(12)
	numAlloc   = int(vm.RAllocLast-firstAlloc) + 1
)

// Allocate assigns registers (or spill slots) to every value of f.
// holes holds the values that are table holes and take no register (nil:
// none). The liveness and interval tables come from s (nil is allowed).
func Allocate(f *ir.Func, holes ir.Bitset, s *ir.Scratch) *Allocation {
	defer s.Release(s.Mark())
	nv := f.NumValues()
	liveIn, liveOut := liveness(f, holes, s)

	// Build conservative single-range intervals: value v spans
	// [start[v], end[v]] once touched.
	start, end := s.Int32s(nv), s.Int32s(nv)
	touched := s.Bits(nv)
	touch := func(v ir.Value, p int) {
		if v == 0 || holes.Has(int(v)) {
			return
		}
		if !touched.Has(int(v)) {
			touched.Add(int(v))
			start[v], end[v] = int32(p), int32(p)
			return
		}
		start[v] = min(start[v], int32(p))
		end[v] = max(end[v], int32(p))
	}
	// Parameters are defined by the prologue: their intervals must start at
	// position 0 or another value could claim their register first.
	for _, p := range f.Params {
		touch(p, 0)
	}
	bs := 0
	for _, b := range f.Blocks {
		be := bs + len(b.Instrs)
		// A value live across either block boundary is live at that
		// boundary position: without this, a value entering a block and
		// used mid-block would leave its head span uncovered and another
		// definition could steal its register.
		in, out := liveIn.Row(b.ID), liveOut.Row(b.ID)
		for v := in.Next(0); v >= 0; v = in.Next(v + 1) {
			touch(ir.Value(v), bs)
		}
		for v := out.Next(0); v >= 0; v = out.Next(v + 1) {
			touch(ir.Value(v), bs)
			touch(ir.Value(v), be)
		}
		for k, in := range b.Instrs {
			p := bs + k
			touch(in.Dst, p)
			for _, a := range in.Args {
				touch(a, p)
			}
		}
		bs = be + 1
	}
	ivs := s.Values(touched.Len())[:0]
	for v := touched.Next(0); v >= 0; v = touched.Next(v + 1) {
		ivs = append(ivs, ir.Value(v))
	}
	slices.SortFunc(ivs, func(a, b ir.Value) int {
		if start[a] != start[b] {
			return int(start[a] - start[b])
		}
		return int(a - b)
	})

	alloc := &Allocation{Loc: make([]Loc, nv), FrameSize: f.StackSize}
	free := make([]vm.Reg, numAlloc)
	for i := range free {
		free[i] = firstAlloc + vm.Reg(i)
	}
	type active struct {
		v   ir.Value
		reg vm.Reg
	}
	act := make([]active, 0, numAlloc)

	spillSlot := func() int {
		s := alloc.FrameSize
		alloc.FrameSize++
		return s
	}
	for _, v := range ivs {
		// Expire the intervals that ended before this one starts.
		na := act[:0]
		for _, a := range act {
			if end[a.v] < start[v] {
				free = append(free, a.reg)
			} else {
				na = append(na, a)
			}
		}
		act = na
		if len(free) > 0 {
			r := free[len(free)-1]
			free = free[:len(free)-1]
			alloc.Loc[v] = Loc{Reg: r}
			act = append(act, active{v: v, reg: r})
			continue
		}
		// Spill the interval ending furthest away.
		far := -1
		for k, a := range act {
			if far < 0 || end[a.v] > end[act[far].v] {
				far = k
			}
		}
		if far >= 0 && end[act[far].v] > end[v] {
			r := act[far].reg
			alloc.Loc[act[far].v] = Loc{Spilled: true, Slot: spillSlot()}
			alloc.Loc[v] = Loc{Reg: r}
			act[far] = active{v: v, reg: r}
		} else {
			alloc.Loc[v] = Loc{Spilled: true, Slot: spillSlot()}
		}
	}
	if Verify {
		checkOverlap(f, alloc, ivs, start, end)
	}
	return alloc
}

// checkOverlap panics if two values whose intervals overlap share a
// register.
func checkOverlap(f *ir.Func, alloc *Allocation, ivs []ir.Value, start, end []int32) {
	for x, a := range ivs {
		la := alloc.Loc[a]
		if la.Spilled || la.Reg == 0 {
			continue
		}
		for _, b := range ivs[x+1:] {
			if lb := alloc.Loc[b]; lb.Spilled || lb.Reg != la.Reg {
				continue
			}
			if start[a] <= end[b] && start[b] <= end[a] {
				panic(fmt.Sprintf("regalloc: %s: v%d [%d,%d] and v%d [%d,%d] share r%d",
					f.Name, a, start[a], end[a], b, start[b], end[b], la.Reg))
			}
		}
	}
}

// liveness computes per-block live-in and live-out sets, one row per
// block ID (backward union dataflow). Hole values are excluded.
func liveness(f *ir.Func, holes ir.Bitset, s *ir.Scratch) (liveIn, liveOut ir.BitMatrix) {
	nb, nv := f.NumBlockIDs(), f.NumValues()
	use, def := s.BitMatrix(nb, nv), s.BitMatrix(nb, nv)
	for _, b := range f.Blocks {
		u, d := use.Row(b.ID), def.Row(b.ID)
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a != 0 && !holes.Has(int(a)) && !d.Has(int(a)) {
					u.Add(int(a))
				}
			}
			if in.Dst != 0 {
				d.Add(int(in.Dst))
			}
		}
	}
	liveIn, liveOut = s.BitMatrix(nb, nv), s.BitMatrix(nb, nv)
	for changed := true; changed; {
		changed = false
		for k := len(f.Blocks) - 1; k >= 0; k-- {
			b := f.Blocks[k]
			succs := b.Succs()
			in, out := liveIn.Row(b.ID), liveOut.Row(b.ID)
			u, d := use.Row(b.ID), def.Row(b.ID)
			for w := range out {
				o := out[w]
				for _, sb := range succs {
					o |= liveIn.Row(sb.ID)[w]
				}
				i := in[w] | u[w] | o&^d[w]
				if o != out[w] || i != in[w] {
					out[w], in[w] = o, i
					changed = true
				}
			}
		}
	}
	return liveIn, liveOut
}
