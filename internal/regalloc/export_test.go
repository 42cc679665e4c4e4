package regalloc

import "dyncc/internal/ir"

// Liveness exposes the allocator's liveness to the oracle tests.
func Liveness(f *ir.Func, holes ir.Bitset, s *ir.Scratch) (liveIn, liveOut ir.BitMatrix) {
	return liveness(f, holes, s)
}
