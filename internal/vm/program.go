package vm

import (
	"fmt"
	"strings"
	"sync/atomic"
	"unsafe"
)

// Segment is an executable sequence of instructions: either a compiled
// function or a run-time stitched code segment belonging to a function.
//
// A Segment's Code and metadata must not be mutated once a Machine has run
// it (or Prepare has been called): the interpreter caches a derived
// execution plan on the segment.
type Segment struct {
	Name      string
	Code      []Inst
	Consts    []int64  // linearized large-constant table (stitched segments)
	Parent    *Segment // owning function, for stitched segments
	Region    int      // region index this segment belongs to, or -1
	Stitched  bool
	FrameSize int // words of stack frame (function segments)
	NumParams int

	// JumpTables holds indirect-branch targets for JTBL instructions.
	JumpTables [][]int

	// Static-build instrumentation: per-pc region attribution.
	RegionOf []int16 // region index at each pc, or -1
	SetupOf  []bool  // pc belongs to set-up code (overhead, not execution)

	// RegionEntry counts region invocations in statically compiled code:
	// RegionEntry[pc] >= 0 names the region whose invocation count is
	// incremented each time pc executes. Nil when the segment has none.
	RegionEntry []int32

	// plan caches the derived execution plan (attribution + block costs),
	// built once per segment and shared by all machines running it.
	plan atomic.Pointer[execPlan]
}

// Prepare eagerly builds the segment's execution plan. Install paths
// (codegen, stitcher) call it so the derivation cost is paid at compile or
// stitch time rather than on a machine's first execution; segments built
// by hand get the plan lazily on first run.
func (s *Segment) Prepare() { s.execPlan() }

func (s *Segment) execPlan() *execPlan {
	if p := s.plan.Load(); p != nil {
		return p
	}
	// Benign race: concurrent first runs may build duplicate plans; the
	// plan is a pure function of the (immutable) segment, so any winner
	// is correct.
	p := buildPlan(s)
	s.plan.Store(p)
	return p
}

// MemFootprint returns the approximate resident size of the segment's code
// and tables in bytes. The runtime's stitch cache uses it to enforce
// CacheOptions.MaxCodeBytes; it deliberately excludes the lazily built
// execution plan (plan size is proportional to code size, so the bound
// still scales correctly).
func (s *Segment) MemFootprint() int {
	n := len(s.Code) * int(unsafe.Sizeof(Inst{}))
	n += len(s.Consts) * 8
	for _, t := range s.JumpTables {
		n += len(t) * 8
	}
	n += len(s.RegionOf)*2 + len(s.SetupOf) + len(s.RegionEntry)*4
	return n
}

// Disasm renders the segment as assembly.
func (s *Segment) Disasm() string {
	var b strings.Builder
	for i, in := range s.Code {
		fmt.Fprintf(&b, "%4d: %s\n", i, in)
	}
	return b.String()
}

// Program is a complete executable image.
type Program struct {
	Segs        []*Segment // function segments; index = function id
	FuncIndex   map[string]int
	GlobalInit  []int64 // initial globals image (GlobalWords long)
	GlobalWords int
	NumRegions  int
}

// FuncID returns the function index for name, or -1.
func (p *Program) FuncID(name string) int {
	if i, ok := p.FuncIndex[name]; ok {
		return i
	}
	return -1
}

// Builtin host functions callable via CALL with negative indices
// (id i is encoded as Imm = -(i+1)).
var BuiltinNames = []string{
	"print_int", "print_float", "print_str", "alloc",
	"abs", "min", "max", "cos", "sin", "sqrt",
}

// BuiltinIndex maps builtin names to their ids.
var BuiltinIndex = func() map[string]int {
	m := map[string]int{}
	for i, n := range BuiltinNames {
		m[n] = i
	}
	return m
}()
