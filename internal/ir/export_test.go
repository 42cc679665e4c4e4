package ir

// BlockLiveIn exposes the pre-SSA liveness to the oracle tests.
func BlockLiveIn(f *Func, s *Scratch) BitMatrix { return blockLiveIn(f, s) }
