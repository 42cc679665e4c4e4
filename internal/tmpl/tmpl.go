// Package tmpl defines the artifacts the static compiler hands to the
// dynamic compiler (the stitcher): pre-compiled machine-code templates with
// holes, the stitcher directives describing them (paper Table 1), and the
// layout of the run-time constants table.
package tmpl

import (
	"fmt"
	"strings"

	"dyncc/internal/vm"
)

// SlotRef names a run-time constants table slot. LoopID -1 is the region
// table; otherwise the current iteration record of that unrolled loop.
type SlotRef struct {
	LoopID int
	Slot   int
}

// String renders the slot in the paper's "4:1"-style notation.
func (s SlotRef) String() string {
	if s.LoopID < 0 {
		return fmt.Sprintf("%d", s.Slot)
	}
	return fmt.Sprintf("%d:%d", s.LoopID, s.Slot)
}

// Hole marks an instruction operand to be patched with a run-time constant.
type Hole struct {
	Pc    int // index into the owning block's Code
	Slot  SlotRef
	Float bool // value is floating point (always placed in the large-constant table)
}

// TermKind classifies template-block terminators.
type TermKind int

// Terminator kinds.
const (
	TermJump   TermKind = iota
	TermBr              // two-way branch
	TermSwitch          // n-way constant switch (non-constant switches are
	// lowered to branch chains before code generation)
	TermRet
)

// Edge is a template-block successor: another template block, or an exit
// from the region into the enclosing function's code.
type Edge struct {
	Block  int // template block index, or -1 for a region exit
	ExitPC int // pc in the function segment when Block == -1
}

// Term describes a template block's terminator.
type Term struct {
	Kind      TermKind
	CondReg   vm.Reg   // TermBr with run-time (non-constant) predicate
	ConstSlot *SlotRef // TermBr/TermSwitch on a run-time constant (CONST_BRANCH)
	Cases     []int64  // TermSwitch case values
	Succs     []Edge   // Br: [then, else]; Switch: cases + default; Jump: [next]
}

// Block is one machine-code template basic block.
type Block struct {
	IRID   int // originating IR block id (diagnostics)
	Code   []vm.Inst
	Holes  []Hole
	Term   Term
	LoopID int // innermost unrolled loop containing the block, or -1
}

// Loop describes an unrolled loop's table linkage.
type Loop struct {
	ID         int
	ParentID   int     // enclosing unrolled loop, or -1
	HeaderSlot SlotRef // slot (in parent scope) holding the first record
	NextSlot   int     // slot of the next-record link within each record
	RecordSize int
	HeadBlock  int // template block index of the loop head
	LatchBlock int // template block index holding the back edge
}

// Stats records the optimizations the splitter planned for this region
// (Table 3 columns resolved at stitch time are counted by the stitcher).
type Stats struct {
	ConstOpsFolded  int
	LoadsEliminated int
	ConstBranches   int
	LoopsUnrolled   int
	Holes           int
}

// Region is everything the stitcher needs for one dynamic region.
type Region struct {
	Index     int // global region index (DYNENTER immediate)
	Name      string
	FuncID    int
	TableSize int
	KeyRegs   []vm.Reg // registers holding key values at DYNENTER
	Entry     int      // template block index entered from the region head
	Blocks    []*Block
	Loops     []*Loop
	Stats     Stats

	// StitchedName names the region's stitched segments (Name +
	// ".stitched"). Codegen derives it once so a stitch need not.
	StitchedName string

	// Shareable marks regions whose stitched code is a pure function of
	// the key-register values: the static compiler proved that the set-up
	// code computes the run-time constants table from the key values alone
	// (no loads from machine memory, no calls beyond the builder's table
	// allocations, no frame addresses). Two machines presenting the same
	// key bytes would stitch bit-identical segments, so the runtime may
	// hand one machine's stitched segment to another (the cross-machine
	// shared cache). Regions that read machine memory during set-up are
	// never shared: their tables alias per-machine data.
	Shareable bool

	// Auto marks regions synthesized by the autoregion pass. The runtime
	// profiles such regions before stitching them, wraps their stitched
	// code in GUARD instructions, and deoptimizes to DeoptPC — the pc of
	// the region's set-up entry in the containing function segment — when
	// a speculated key changes.
	Auto    bool
	DeoptPC int
}

// TemplateInsts returns the total template instruction count.
func (r *Region) TemplateInsts() int {
	n := 0
	for _, b := range r.Blocks {
		n += len(b.Code) + 1 // +1 for the terminator
	}
	return n
}

// Directives renders the region's stitcher directives in the paper's
// Table 1 vocabulary (START, HOLE, CONST_BRANCH, ENTER_LOOP, EXIT_LOOP,
// RESTART_LOOP, BRANCH, LABEL, END). The listing is equivalent to the
// structured metadata the stitcher actually interprets.
func (r *Region) Directives() []string {
	var ds []string
	add := func(format string, args ...any) { ds = append(ds, fmt.Sprintf(format, args...)) }
	add("START(b%d)", r.Entry)
	headOf := map[int]*Loop{}
	latchOf := map[int]*Loop{}
	for _, l := range r.Loops {
		headOf[l.HeadBlock] = l
		latchOf[l.LatchBlock] = l
	}
	for bi, b := range r.Blocks {
		add("LABEL(b%d)", bi)
		if l, ok := headOf[bi]; ok {
			add("ENTER_LOOP(b%d, header=%s, next=%d)", bi, l.HeaderSlot, l.NextSlot)
		}
		for _, h := range b.Holes {
			add("HOLE(b%d+%d, %s)", bi, h.Pc, h.Slot)
		}
		switch b.Term.Kind {
		case TermJump:
			if l, ok := latchOf[bi]; ok {
				add("RESTART_LOOP(b%d, loop=%d)", bi, l.ID)
			} else {
				add("BRANCH(b%d -> %s)", bi, edgeStr(b.Term.Succs[0]))
			}
		case TermBr:
			if b.Term.ConstSlot != nil {
				add("CONST_BRANCH(b%d, %s)", bi, *b.Term.ConstSlot)
			} else {
				add("BRANCH(b%d -> %s | %s)", bi, edgeStr(b.Term.Succs[0]), edgeStr(b.Term.Succs[1]))
			}
		case TermSwitch:
			add("CONST_BRANCH(b%d, %s, %d-way)", bi, *b.Term.ConstSlot, len(b.Term.Succs))
		case TermRet:
			add("RETURN(b%d)", bi)
		}
		for _, e := range b.Term.Succs {
			if e.Block < 0 {
				add("EXIT_LOOP/EXIT(b%d -> pc %d)", bi, e.ExitPC)
			}
		}
	}
	add("END")
	return ds
}

func edgeStr(e Edge) string {
	if e.Block < 0 {
		return fmt.Sprintf("exit@%d", e.ExitPC)
	}
	return fmt.Sprintf("b%d", e.Block)
}

// Dump renders blocks, holes and directives for debugging and golden tests.
func (r *Region) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "region %s (table %d words)\n", r.Name, r.TableSize)
	for bi, b := range r.Blocks {
		fmt.Fprintf(&sb, "tb%d (ir b%d, loop %d):\n", bi, b.IRID, b.LoopID)
		for pc, in := range b.Code {
			hole := ""
			for _, h := range b.Holes {
				if h.Pc == pc {
					hole = fmt.Sprintf("   ; hole %s", h.Slot)
				}
			}
			fmt.Fprintf(&sb, "  %3d: %s%s\n", pc, in, hole)
		}
		fmt.Fprintf(&sb, "  term: %v\n", b.Term)
	}
	for _, d := range r.Directives() {
		fmt.Fprintf(&sb, "  %s\n", d)
	}
	return sb.String()
}
