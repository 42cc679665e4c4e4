package analysis

import "dyncc/internal/ir"

// FuncSummary is the per-function summary the demand-driven inlining pass
// consumes (and any other interprocedural consumer may reuse): enough to
// decide, without re-walking the callee at every call site, whether a
// body can be grafted into a caller and what that would cost.
type FuncSummary struct {
	// Size is the instruction count over all blocks (terminators and φs
	// included) — the quantity Config.InlineBudget caps.
	Size int
	// Pure reports the body is side-effect-free: no stores and no calls
	// other than pure builtins. (Loads are allowed; purity here means
	// "cannot change observable state", not "value is stable".)
	Pure bool
	// Recursive reports the function can reach itself through the static
	// call graph (including directly). Filled by Summaries; Summarize
	// alone only detects direct self-calls.
	Recursive bool
	// HasAddressOfLocal reports the function materializes a stack address
	// (address-taken local or aggregate): its frame cannot be dissolved
	// into a caller.
	HasAddressOfLocal bool
	// HasRegion reports the body contains a dynamic region; regions are
	// never grafted (no nesting).
	HasRegion bool
	// Returns reports at least one reachable `ret`; a function that can
	// only diverge has no continuation to graft a return φ into.
	Returns bool
	// ReturnsValue reports every reachable `ret` carries a value (lower
	// guarantees this for non-void functions via implicit returns).
	ReturnsValue bool
	// Calls lists callee names (user functions only, builtins excluded),
	// in first-occurrence order — the call-graph edges Summaries walks.
	Calls []string
}

// Summarize computes the summary of one function. f may be in either SSA
// or pre-SSA form; reachability is taken from the entry block, with the
// walk's tables from sc (nil is allowed).
func Summarize(f *ir.Func, sc *ir.Scratch) *FuncSummary {
	defer sc.Release(sc.Mark())
	s := &FuncSummary{Pure: true, ReturnsValue: true}
	if f.StackSize > 0 {
		s.HasAddressOfLocal = true
	}
	if len(f.Regions) > 0 {
		s.HasRegion = true
	}
	seenCallee := map[string]bool{}
	for _, b := range sc.ReversePostorder(f) {
		for _, in := range b.Instrs {
			s.Size++
			switch in.Op {
			case ir.OpStackAddr:
				s.HasAddressOfLocal = true
			case ir.OpStore:
				s.Pure = false
			case ir.OpDynEnter, ir.OpDynStitch, ir.OpTblStore:
				s.HasRegion = true
			case ir.OpRet:
				s.Returns = true
				if len(in.Args) == 0 {
					s.ReturnsValue = false
				}
			case ir.OpCall:
				if bi := ir.Builtins[in.Sym]; bi != nil {
					if !bi.Pure {
						s.Pure = false
					}
					continue
				}
				s.Pure = false
				if in.Sym == f.Name {
					s.Recursive = true
				}
				if !seenCallee[in.Sym] {
					seenCallee[in.Sym] = true
					s.Calls = append(s.Calls, in.Sym)
				}
			}
		}
	}
	return s
}

// Summaries summarizes every function in the module and closes the
// Recursive bit over the static call graph: a function is Recursive iff it
// lies on a call-graph cycle (including a direct self-call). Purity needs
// no closure — Summarize already treats any user call as impure.
func Summaries(mod *ir.Module, sc *ir.Scratch) map[string]*FuncSummary {
	sums := make(map[string]*FuncSummary, len(mod.Funcs))
	for _, f := range mod.Funcs {
		sums[f.Name] = Summarize(f, sc)
	}
	// Cycle detection by DFS with colors; every function on a cycle (or
	// whose call chain re-enters a function already on the current stack)
	// is marked Recursive.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	onCycle := map[string]bool{}
	var dfs func(name string, stack []string)
	dfs = func(name string, stack []string) {
		color[name] = gray
		stack = append(stack, name)
		for _, callee := range sums[name].Calls {
			if sums[callee] == nil {
				continue // unknown callee (compile error elsewhere)
			}
			switch color[callee] {
			case white:
				dfs(callee, stack)
			case gray:
				// Back edge: everything from callee to the stack top cycles.
				mark := false
				for _, fn := range stack {
					if fn == callee {
						mark = true
					}
					if mark {
						onCycle[fn] = true
					}
				}
			}
		}
		color[name] = black
	}
	for _, f := range mod.Funcs {
		if color[f.Name] == white {
			dfs(f.Name, nil)
		}
	}
	// Recursive closes upward: calling into a cycle is only Recursive for
	// members of the cycle itself, so mark exactly the cycle members.
	for name := range onCycle {
		sums[name].Recursive = true
	}
	return sums
}
