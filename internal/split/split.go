// Package split implements the paper's section 3.2: dividing each dynamic
// region into set-up code (which computes every needed derived run-time
// constant into the run-time constants table) and template code (the
// residual instructions, whose run-time-constant operands become holes).
//
// The set-up subgraph keeps the constant-controlled structure of the
// region: unrolled loops become real loops that allocate one linked table
// record per iteration, while non-constant control flow is flattened —
// sound, because run-time-constant computations are pure and non-trapping
// by construction, so executing both arms of a dynamic branch during set-up
// cannot change their values or fault. φs at constant merges are resolved
// with branch-free selects over their predecessors' reachability conditions.
package split

import (
	"fmt"

	"dyncc/internal/analysis"
	"dyncc/internal/ir"
)

// SlotRef names a run-time constants table slot: Loop == nil is the
// region-level table; otherwise the current iteration record of that loop.
type SlotRef struct {
	Loop *ir.Loop
	Slot int
}

// String renders the slot in the paper's "4:1"-like notation.
func (s SlotRef) String() string {
	if s.Loop == nil {
		return fmt.Sprintf("%d", s.Slot)
	}
	return fmt.Sprintf("L%d:%d", s.Loop.ID, s.Slot)
}

// Stats counts the optimizations planned for the stitcher (Table 3 input).
type Stats struct {
	ConstOpsFolded  int // arithmetic moved to set-up (dynamic constant folding)
	LoadsEliminated int // loads through constant pointers moved to set-up
	ConstBranches   int // branches the stitcher will resolve (static branch elim + DCE)
	LoopsUnrolled   int // loops the stitcher will completely unroll
	Holes           int // hole operands in templates
}

// Result is the outcome of splitting one dynamic region.
type Result struct {
	Region        *ir.Region
	Analysis      *analysis.Result
	SetupEntry    *ir.Block
	TemplateEntry *ir.Block
	TableValue    ir.Value // set-up value holding the region table base

	// Holes lists the run-time-constant values referenced by template
	// code with their table slots, in ascending value order.
	Holes []Hole

	// BranchSlot maps retained constant branches (CONST_BRANCH directives)
	// to the slot holding their predicate.
	BranchSlot map[*ir.Instr]SlotRef

	// NextSlot is the index of the next-record link within each unrolled
	// loop's iteration record.
	NextSlot map[*ir.Loop]int

	Stats Stats
}

// Hole is one template hole: a run-time-constant value and its slot.
type Hole struct {
	V    ir.Value
	Slot SlotRef
}

// Split analyzes and splits region r of f (SSA form required), mutating f:
// region blocks become template blocks stripped of constant computations,
// and new set-up blocks are linked in behind an OpDynEnter entry. Its
// working tables come from s (nil is allowed); the Result owns its own.
func Split(f *ir.Func, r *ir.Region, s *ir.Scratch) (*Result, error) {
	defer s.Release(s.Mark())
	forced := s.Bits(f.NumValues())
	for attempt := 0; ; attempt++ {
		res, err := analysis.Analyze(f, r, forced, s)
		if err != nil {
			return nil, err
		}
		if err := checkUnrollLegality(f, r, res); err != nil {
			return nil, err
		}
		demote := plan(f, r, res, s)
		if len(demote) == 0 {
			return build(f, r, res, s)
		}
		if attempt > 64 {
			return nil, fmt.Errorf("split: demotion did not converge in %s region %d", f.Name, r.ID)
		}
		for _, v := range demote {
			forced.Add(int(v))
		}
	}
}

// checkUnrollLegality verifies each annotated loop can be unrolled: the
// head must be a two-predecessor merge (entry + latch) terminated by a
// branch on a run-time constant (paper section 2: "The loop termination
// condition must be governed by a run-time constant").
func checkUnrollLegality(f *ir.Func, r *ir.Region, res *analysis.Result) error {
	for _, l := range r.Loops {
		term := l.Head.Term()
		if term == nil || term.Op != ir.OpBr {
			return fmt.Errorf("%s: unrolled loop %d head does not end in a conditional branch", f.Name, l.ID)
		}
		if !res.ConstBranch[term] {
			return fmt.Errorf("%s: unrolled loop %d condition is not governed by a run-time constant", f.Name, l.ID)
		}
		if len(l.Head.Preds) != 2 {
			return fmt.Errorf("%s: unrolled loop %d head has %d predecessors (need entry + back edge)",
				f.Name, l.ID, len(l.Head.Preds))
		}
		if l.Head.Preds[0] != l.Latch && l.Head.Preds[1] != l.Latch {
			return fmt.Errorf("%s: unrolled loop %d head is not reached from its latch", f.Name, l.ID)
		}
	}
	return nil
}

// isLiteral reports whether v is a compile-time literal constant, chasing
// copy chains (the optimizer usually removes them, but splitting must not
// depend on that).
func isLiteral(f *ir.Func, v ir.Value) bool {
	for depth := 0; depth < 64; depth++ {
		def := f.DefOf(v)
		if def == nil {
			return false
		}
		switch def.Op {
		case ir.OpConst, ir.OpFConst:
			return true
		case ir.OpCopy:
			v = def.Args[0]
		default:
			return false
		}
	}
	return false
}

// loopOf returns the innermost unrolled loop containing the definition of
// v, or nil for region scope (including values defined outside the region).
func loopOf(f *ir.Func, r *ir.Region, v ir.Value) *ir.Loop {
	def := f.DefOf(v)
	if def == nil || def.Blk == nil || def.Blk.Region != r {
		return nil
	}
	if n := len(def.Blk.Loops); n > 0 {
		return def.Blk.Loops[n-1]
	}
	return nil
}

// plan dry-runs the set-up schedule and returns values that must be demoted
// to non-constant for the split to be expressible:
//
//  1. per-iteration constants used by template code outside their loop
//     (the record holding them is no longer current there), and
//  2. constant-merge φs whose reachability atoms reference branches that
//     appear later in reverse postorder (their predicates would not yet be
//     materialized when the select chain runs).
func plan(f *ir.Func, r *ir.Region, res *analysis.Result, s *ir.Scratch) []ir.Value {
	defer s.Release(s.Mark())
	// rpo[b.ID] is b's reverse-postorder position (0 when unreachable).
	rpo := s.Int32s(f.NumBlockIDs())
	for i, b := range s.ReversePostorder(f) {
		rpo[b.ID] = int32(i)
	}
	var demote []ir.Value
	seen := s.Bits(f.NumValues())
	add := func(v ir.Value) {
		if !seen.Has(int(v)) {
			seen.Add(int(v))
			demote = append(demote, v)
		}
	}

	// Rule 3: a region-defined constant used by code outside the region
	// would lose its definition when the splitter strips it from the
	// template (the set-up value lives only in the table). Demote such
	// values so they stay ordinary computations.
	definedIn := s.Bits(f.NumValues())
	for _, b := range f.Blocks {
		if b.Region == r && !b.Setup {
			for _, in := range b.Instrs {
				if in.Dst != 0 {
					definedIn.Add(int(in.Dst))
				}
			}
		}
	}
	for _, b := range f.Blocks {
		if b.Region == r {
			continue
		}
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				// Literals keep their (dominating) template definition, so
				// outside uses still see the value in its register.
				if definedIn.Has(int(a)) && res.Const.Has(int(a)) && !isLiteral(f, a) {
					add(a)
				}
			}
		}
	}

	for _, b := range f.Blocks {
		if b.Region != r {
			continue
		}
		for _, in := range b.Instrs {
			if in.Dst != 0 && res.Const.Has(int(in.Dst)) {
				// This instruction moves to set-up; check φ schedulability.
				if in.Op == ir.OpPhi && !isUnrolledHead(r, b) {
					for pi := range b.Preds {
						ec := res.EdgeReach[analysis.EdgeKey{To: b, PredIdx: pi}]
						for _, cj := range ec.Disj {
							for _, a := range cj {
								if rpo[a.Block.ID] >= rpo[b.ID] {
									add(in.Dst)
								}
							}
						}
					}
				}
				continue
			}
			// Remains in template: constant args become holes; a hole whose
			// record is out of scope here must be demoted. (Literals are
			// immediates, not holes.) For φs the use-site is the
			// predecessor block — out-of-SSA places the copy there — so a
			// per-iteration constant reaching an exit merge through an
			// in-loop predecessor is fine.
			for ai, a := range in.Args {
				if !res.Const.Has(int(a)) || isLiteral(f, a) {
					continue
				}
				useBlk := b
				if in.Op == ir.OpPhi && ai < len(b.Preds) {
					useBlk = b.Preds[ai]
				}
				if dl := loopOf(f, r, a); dl != nil && !useBlk.InLoop(dl) {
					add(a)
				}
			}
		}
	}
	return demote
}

func isUnrolledHead(r *ir.Region, b *ir.Block) bool {
	for _, l := range r.Loops {
		if l.Head == b {
			return true
		}
	}
	return false
}
