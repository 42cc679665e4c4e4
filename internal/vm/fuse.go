package vm

import "sync"

// Stitch-time superinstruction fusion.
//
// Fuse rewrites a finished code sequence — stitched output or a statically
// compiled function body — into a shorter one that executes fewer
// interpreter dispatches for the same guest-visible behaviour:
//
//   - copy propagation rewires readers of MOV copies to the source so the
//     copies die;
//   - dead pure register writes are removed, with their modeled cost and
//     instruction count absorbed into an adjacent instruction's XCost /
//     XInsts fields;
//   - adjacent pairs collapse into superinstructions: compare+branch
//     (CMPBR/CMPBRI), load+ALU (LDOP/LDOPR), multiply+add (MADDI), and
//     immediate-add chains;
//   - unconditional branch chains are threaded.
//
// The rewrite is modeled-cost neutral: every eliminated or folded
// instruction's static cycle cost and instruction count is carried by the
// survivor (StaticCost/InstCount), branch-taken and wide-LI penalties are
// preserved, and attribution never moves across a region or set-up
// boundary. Running the fused code therefore leaves Machine.Cycles,
// Machine.Insts and all per-region counters bit-identical to the unfused
// code. The one documented divergence is on error paths: when a fused
// load+op traps on its load, the pair's combined cost has already been
// charged where the seed would have charged the load alone.
type FuseOptions struct {
	// Per-pc attribution of the input code (nil: uniform, e.g. stitched
	// segments). Fusion never moves cost across an attribution change.
	RegionOf []int16
	SetupOf  []bool

	// Leaders are pcs that external references point at (labels, jump-table
	// entries, region exit arcs). They survive as instruction boundaries:
	// nothing is fused across them and PCMap tracks where they land. All
	// indirect-branch targets must be listed here.
	Leaders []int

	// EntryPCs are pcs carrying a region-invocation marker. Jump threading
	// never skips over one (the invocation count would be lost).
	EntryPCs []int
}

// FuseStats reports what the pipeline did.
type FuseStats struct {
	MovsEliminated     int // MOV copies removed by copy propagation
	DeadWritesAbsorbed int // other dead pure writes removed
	CmpBranchFused     int // compare+branch pairs -> CMPBR/CMPBRI
	LoadOpFused        int // load+ALU pairs -> LDOP/LDOPR
	MulAddFused        int // MULI+ADD pairs -> MADDI
	AddChainsFused     int // ADDI+ADDI chains collapsed
	BranchesThreaded   int // BR-to-BR jumps retargeted
	InstsBefore        int
	InstsAfter         int
}

// FuseResult is the rewritten code plus the bookkeeping the caller needs
// to relocate labels and attribution tables. Every slice is freshly
// allocated at its exact size; none aliases the input or Fuse's pooled
// scratch.
type FuseResult struct {
	Code []Inst

	// PCMap maps every input pc (plus one-past-the-end) to the output pc of
	// its instruction — or, when the instruction was eliminated, of the next
	// surviving instruction. Monotone, so label and table remapping is a
	// direct index. Nil when FuseOptions has no Leaders and no EntryPCs:
	// those are the only input pcs a caller can hold, so without them
	// there is nothing to relocate.
	PCMap []int

	// Remapped attribution for the output code (nil if the input's was nil).
	RegionOf []int16
	SetupOf  []bool

	Stats FuseStats
}

const allRegs = ^uint64(0)

// fuser carries the pipeline state over one Fuse call. It is pooled: every
// buffer is reused across calls and resized, never reallocated, once warm.
// All per-pc slices are indexed by current pc; compact rewrites them in
// place.
type fuser struct {
	code     []Inst
	regionOf []int16 // nil: uniform attribution
	setupOf  []bool  // nil: no set-up code
	leader   []bool  // external leaders + control-flow leaders, current code
	extern   []bool  // externally-referenced pcs only, current code
	entry    []bool  // region-entry pcs, current code
	kill     []bool  // slots marked for removal by the current pass
	pcMap    []int   // original pc -> current pc
	newpc    []int   // compact's old pc -> new pc
	liveOut  []uint64
	liveIn   []uint64 // block-start pc -> live-in registers
	starts   []int    // block starts, ascending
	stats    FuseStats

	// Backing buffers for the optional attribution tables, kept while
	// regionOf/setupOf are nil for inputs without attribution.
	regionBuf []int16
	setupBuf  []bool
}

// maxPooledFuseInsts caps what a pooled fuser retains: scratch grown by a
// longer input (one huge static function) is dropped rather than pinned.
const maxPooledFuseInsts = 1 << 14

var fuserPool = sync.Pool{New: func() any { return new(fuser) }}

// Fuse runs the superinstruction pipeline over code and returns the
// rewritten sequence. The input slices are not modified, and the result
// shares no memory with them. Fuse is safe for concurrent use.
func Fuse(code []Inst, opts FuseOptions) FuseResult {
	f := fuserPool.Get().(*fuser)
	res := f.fuse(code, opts)
	if cap(f.code) <= maxPooledFuseInsts {
		fuserPool.Put(f)
	}
	return res
}

// fuse runs the pipeline on f's scratch and copies the result out.
func (f *fuser) fuse(code []Inst, opts FuseOptions) FuseResult {
	f.reset(code, opts)

	f.computeLeaders()
	f.copyProp()
	f.deadWrites()
	f.compact()

	f.computeLeaders()
	f.fusePairs()
	f.compact()

	f.computeLeaders()
	f.threadJumps()

	f.stats.InstsAfter = len(f.code)
	res := FuseResult{
		Code:  append([]Inst(nil), f.code...),
		Stats: f.stats,
	}
	if len(opts.Leaders) > 0 || len(opts.EntryPCs) > 0 {
		res.PCMap = append([]int(nil), f.pcMap...)
	}
	if f.regionOf != nil {
		res.RegionOf = append([]int16(nil), f.regionOf...)
	}
	if f.setupOf != nil {
		res.SetupOf = append([]bool(nil), f.setupOf...)
	}
	return res
}

// reset loads code and opts into pooled scratch, clearing every bit a
// previous call may have left behind.
func (f *fuser) reset(code []Inst, opts FuseOptions) {
	n := len(code)
	f.code = append(f.code[:0], code...)
	f.pcMap = resize(f.pcMap, n+1)
	for i := range f.pcMap {
		f.pcMap[i] = i
	}
	f.regionOf = nil
	if opts.RegionOf != nil {
		f.regionBuf = resize(f.regionBuf, n)
		for i := copy(f.regionBuf, opts.RegionOf); i < n; i++ {
			f.regionBuf[i] = -1
		}
		f.regionOf = f.regionBuf
	}
	f.setupOf = nil
	if opts.SetupOf != nil {
		f.setupBuf = resize(f.setupBuf, n)
		clear(f.setupBuf[copy(f.setupBuf, opts.SetupOf):])
		f.setupOf = f.setupBuf
	}
	f.extern = resize(f.extern, n+1)
	clear(f.extern)
	for _, pc := range opts.Leaders {
		if pc >= 0 && pc <= n {
			f.extern[pc] = true
		}
	}
	f.entry = resize(f.entry, n+1)
	clear(f.entry)
	for _, pc := range opts.EntryPCs {
		if pc >= 0 && pc <= n {
			f.entry[pc] = true
		}
	}
	f.stats = FuseStats{InstsBefore: n}
}

// resize returns buf resized to n, reallocating only when it is too
// small; the contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// sameAttr reports whether pcs a and b share cycle attribution, i.e.
// modeled cost may move between them.
func (f *fuser) sameAttr(a, b int) bool {
	ra, rb := int16(-1), int16(-1)
	if f.regionOf != nil {
		ra, rb = f.regionOf[a], f.regionOf[b]
	}
	if ra != rb {
		return false
	}
	sa, sb := false, false
	if f.setupOf != nil {
		sa, sb = f.setupOf[a], f.setupOf[b]
	}
	return sa == sb
}

// isControl reports whether in ends a straight-line run.
func isControl(op Op) bool {
	switch op {
	case BEQZ, BNEZ, BEQI, BR, CMPBR, CMPBRI, JTBL, CALL, RET, XFER, HALT,
		DYNENTER, DYNSTITCH, GUARD:
		return true
	}
	return false
}

// isBarrier reports whether op may read or write arbitrary registers or
// leave the segment (call, hook dispatch, indirect or inter-segment jump).
func isBarrier(op Op) bool {
	switch op {
	case JTBL, CALL, RET, XFER, HALT, DYNENTER, DYNSTITCH, GUARD:
		return true
	}
	return false
}

// computeLeaders rebuilds the leader set for the current code: external
// references, branch targets, fall-throughs after control transfers,
// attribution changes and entry markers.
func (f *fuser) computeLeaders() {
	n := len(f.code)
	f.leader = resize(f.leader, n+1)
	clear(f.leader)
	mark := func(pc int) {
		if pc >= 0 && pc <= n {
			f.leader[pc] = true
		}
	}
	if n > 0 {
		mark(0)
	}
	for pc := range f.extern {
		if f.extern[pc] || f.entry[pc] {
			mark(pc)
		}
	}
	for pc, in := range f.code {
		switch in.Op {
		case BEQZ, BNEZ, BEQI, BR, CMPBR, CMPBRI:
			mark(in.Target)
			mark(pc + 1)
		case JTBL, CALL, RET, XFER, HALT, DYNENTER, DYNSTITCH:
			mark(pc + 1)
		}
	}
	for pc := 1; pc < n; pc++ {
		if !f.sameAttr(pc-1, pc) {
			f.leader[pc] = true
		}
	}
}

// readSet returns the bitmask of registers in reads explicitly.
func readSet(in *Inst) uint64 {
	bit := func(r Reg) uint64 { return uint64(1) << (r & 63) }
	switch in.Op {
	case LI, LDC, BR, RET, XFER, NOP, HALT:
		return 0
	case JTBL:
		return bit(in.Rs)
	case ST:
		return bit(in.Rs) | bit(in.Rt)
	case BEQZ, BNEZ, BEQI, CMPBRI:
		return bit(in.Rs)
	case MOV, NEG, NOT, FNEG, ITOF, FTOI, LD, ALLOC:
		return bit(in.Rs)
	case CMPBR, LDOP, LDOPR, MADDI:
		return bit(in.Rs) | bit(in.Rt)
	case CALL, DYNENTER, DYNSTITCH:
		return allRegs
	}
	if in.Op.HasImmOperand() {
		return bit(in.Rs)
	}
	return bit(in.Rs) | bit(in.Rt)
}

// writesRd reports whether in writes its Rd field.
func writesRd(in *Inst) bool {
	switch in.Op {
	case ST, BEQZ, BNEZ, BEQI, BR, RET, XFER, NOP, HALT, JTBL,
		CMPBR, CMPBRI, CALL, DYNENTER, DYNSTITCH:
		return false
	}
	return true
}

// pureWrite reports whether in's only effect is writing Rd (no traps, no
// memory access, no dynamic cycle penalties beyond its static cost).
// Oversized-LI constants are excluded: their +1 materialization penalty is
// charged dynamically and would be lost with the instruction.
func pureWrite(in *Inst) bool {
	switch in.Op {
	case LI:
		return FitsImm(in.Imm)
	case MOV, NEG, NOT, FNEG, ITOF, FTOI,
		ADD, SUB, MUL, AND, OR, XOR, SHL, SHR, SHRU,
		SEQ, SNE, SLT, SLE, SLTU, SLEU,
		ADDI, SUBI, MULI, ANDI, ORI, XORI, SHLI, SHRI, SHRUI,
		SEQI, SNEI, SLTI, SLEI, SLTUI, SLEUI,
		FADD, FSUB, FMUL, MADDI:
		return true
	}
	return false
}

// copyProp rewires readers of MOV copies to read the source register
// directly, within basic blocks. The MOVs themselves are left in place for
// the dead-write pass to absorb (implicit readers — hook dispatch, calls —
// keep them live where they matter).
func (f *fuser) copyProp() {
	var src [NumRegs]Reg // src[d] = s when Regs[d] == Regs[s] holds; d when not
	reset := func() {
		for i := range src {
			src[i] = Reg(i)
		}
	}
	invalidate := func(d Reg) {
		src[d] = d
		for i := range src {
			if src[i] == d {
				src[i] = Reg(i)
			}
		}
	}
	reset()
	for pc := range f.code {
		if f.leader[pc] {
			reset()
		}
		in := &f.code[pc]
		if isBarrier(in.Op) {
			reset()
			continue
		}
		// Rewrite explicit reads to the tracked source.
		switch in.Op {
		case LI, LDC, BR, NOP:
			// no register reads
		case ST:
			in.Rs, in.Rt = src[in.Rs], src[in.Rt]
		case BEQZ, BNEZ, BEQI:
			in.Rs = src[in.Rs]
		case MOV, NEG, NOT, FNEG, ITOF, FTOI, LD, ALLOC:
			in.Rs = src[in.Rs]
		default:
			if in.Op.HasImmOperand() {
				in.Rs = src[in.Rs]
			} else {
				in.Rs, in.Rt = src[in.Rs], src[in.Rt]
			}
		}
		if writesRd(in) && in.Rd != RZero {
			if in.Op == MOV && in.Rs != in.Rd {
				invalidate(in.Rd)
				src[in.Rd] = in.Rs
			} else {
				invalidate(in.Rd)
			}
		}
	}
}

// liveness computes, for every pc, the set of registers live after the
// instruction executes (block-level backward fixpoint, conservative at
// barriers and segment exits). The result is pooled scratch, valid until
// the next call.
func (f *fuser) liveness() []uint64 {
	n := len(f.code)
	liveOut := resize(f.liveOut, n)
	liveIn := resize(f.liveIn, n) // block start -> live-in
	clear(liveIn)
	f.liveOut, f.liveIn = liveOut, liveIn
	// Block starts, in order.
	starts := f.starts[:0]
	for pc := 0; pc < n; pc++ {
		if f.leader[pc] {
			starts = append(starts, pc)
		}
	}
	f.starts = starts
	inAt := func(pc int) uint64 {
		if pc < 0 || pc >= n {
			return allRegs
		}
		if f.leader[pc] {
			return liveIn[pc]
		}
		return allRegs // not a block start: only reachable by fallthrough
	}
	// Transfer over a single instruction.
	step := func(in *Inst, after uint64) uint64 {
		if in.Op == RET {
			// CALL snapshots the whole register file and RET restores
			// it: only the return value survives into the caller.
			return uint64(1) << RRV
		}
		if isBarrier(in.Op) {
			return allRegs
		}
		live := after
		if writesRd(in) && in.Rd != RZero {
			live &^= uint64(1) << (in.Rd & 63)
		}
		return live | readSet(in)
	}
	for changed := true; changed; {
		changed = false
		for bi := len(starts) - 1; bi >= 0; bi-- {
			start := starts[bi]
			end := start + 1
			for end < n && !f.leader[end] {
				end++
			}
			// Live-out of the block's last instruction.
			last := &f.code[end-1]
			var out uint64
			switch last.Op {
			case BR:
				out = inAt(last.Target)
			case BEQZ, BNEZ, BEQI, CMPBR, CMPBRI:
				out = inAt(last.Target) | inAt(end)
			case RET:
				out = 0 // step yields {RRV}; nothing else outlives the frame restore
			case HALT, XFER, JTBL, CALL, DYNENTER, DYNSTITCH:
				out = allRegs
			default:
				out = inAt(end)
			}
			live := out
			for pc := end - 1; pc >= start; pc-- {
				liveOut[pc] = live
				live = step(&f.code[pc], live)
			}
			if liveIn[start] != live {
				liveIn[start] = live
				changed = true
			}
		}
	}
	return liveOut
}

// absorb folds StaticCost(victim)/InstCount(victim) into host's XCost /
// XInsts, returning false when the 8-bit absorbers would overflow.
func absorb(host, victim *Inst) bool {
	c, n := StaticCost(victim), InstCount(victim)
	if uint64(host.XCost)+c > 255 || uint64(host.XInsts)+n > 255 {
		return false
	}
	host.XCost += uint8(c)
	host.XInsts += uint8(n)
	return true
}

// deadWrites marks pure register writes whose destination is dead for
// removal in f.kill, absorbing each one's modeled cost into an adjacent
// instruction that executes exactly when it would have. NOPs are absorbed
// the same way (zero cost, one instruction of count).
func (f *fuser) deadWrites() {
	n := len(f.code)
	f.kill = resize(f.kill, n)
	clear(f.kill)
	kill := f.kill
	liveOut := f.liveness()
	for pc := 0; pc < n; pc++ {
		in := &f.code[pc]
		dead := in.Op == NOP && !isControl(in.Op)
		if !dead {
			if !pureWrite(in) {
				continue
			}
			if in.Rd != RZero && liveOut[pc]&(uint64(1)<<(in.Rd&63)) != 0 {
				continue
			}
			dead = true
		}
		// Find the absorber: forward into pc+1 when no other path enters
		// there, else backward into pc-1 when no other path enters at pc.
		var host *Inst
		if pc+1 < n && !f.leader[pc+1] && !kill[pc+1] && f.sameAttr(pc, pc+1) {
			host = &f.code[pc+1]
		} else if pc > 0 && !f.leader[pc] && !kill[pc-1] && f.sameAttr(pc-1, pc) {
			host = &f.code[pc-1]
		}
		if host == nil || !absorb(host, in) {
			continue
		}
		kill[pc] = true
		if in.Op == MOV {
			f.stats.MovsEliminated++
		} else if in.Op != NOP {
			f.stats.DeadWritesAbsorbed++
		}
	}
}

// compact removes the slots marked in f.kill, remapping branch targets,
// attribution tables, the external reference sets and the cumulative
// PCMap. XFER targets point into the parent segment and are never touched.
// The rewrite is in place: a surviving pc only moves down (newpc[pc] <=
// pc), so writing slot newpc[pc] front to back never clobbers a slot that
// is still to be read.
func (f *fuser) compact() {
	n := len(f.code)
	kill := f.kill
	newpc := resize(f.newpc, n+1)
	f.newpc = newpc
	j := 0
	for pc := 0; pc < n; pc++ {
		newpc[pc] = j
		if !kill[pc] {
			j++
		}
	}
	newpc[n] = j
	if j == n {
		return // nothing killed
	}
	// A killed pc's extern/entry bits land on the next survivor (or the
	// end), so they accumulate until a survivor is written.
	ext, ent := false, false
	for pc := 0; pc < n; pc++ {
		ext = ext || f.extern[pc]
		ent = ent || f.entry[pc]
		if kill[pc] {
			continue
		}
		at := newpc[pc]
		f.extern[at], f.entry[at] = ext, ent
		ext, ent = false, false
		in := f.code[pc]
		switch in.Op {
		case BEQZ, BNEZ, BEQI, BR, CMPBR, CMPBRI:
			if in.Target >= 0 && in.Target <= n {
				in.Target = newpc[in.Target]
			}
		}
		f.code[at] = in
		if f.regionOf != nil {
			f.regionOf[at] = f.regionOf[pc]
		}
		if f.setupOf != nil {
			f.setupOf[at] = f.setupOf[pc]
		}
	}
	f.extern[j] = ext || f.extern[n]
	f.entry[j] = ent || f.entry[n]
	for i := range f.pcMap {
		f.pcMap[i] = newpc[f.pcMap[i]]
	}
	f.code = f.code[:j]
	f.extern = f.extern[:j+1]
	f.entry = f.entry[:j+1]
	if f.regionOf != nil {
		f.regionOf = f.regionOf[:j]
	}
	if f.setupOf != nil {
		f.setupOf = f.setupOf[:j]
	}
}

// cmpSub returns the reg-form compare sub-op for a fusable compare, the
// immediate flag, and ok.
func cmpSub(op Op) (sub Op, imm bool, ok bool) {
	switch op {
	case SEQ, SNE, SLT, SLE, SLTU, SLEU, FEQ, FNE, FLT, FLE:
		return op, false, true
	case SEQI, SNEI, SLTI, SLEI, SLTUI, SLEUI:
		return ImmToRegForm(op), true, true
	}
	return 0, false, false
}

// ldSub reports whether op is a reg-form ALU op foldable into LDOP/LDOPR
// (trap-free: divide and modulus are excluded to keep trap pcs exact).
func ldSub(op Op) bool {
	switch op {
	case ADD, SUB, MUL, AND, OR, XOR, SHL, SHR, SHRU,
		SEQ, SNE, SLT, SLE, SLTU, SLEU, FADD, FSUB, FMUL:
		return true
	}
	return false
}

// fusePairs collapses adjacent instruction pairs into superinstructions,
// marking each absorbed second half in f.kill. A pair fuses only when the
// second slot has no other predecessors, both halves share attribution,
// and the intermediate register dies with the pair.
func (f *fuser) fusePairs() {
	n := len(f.code)
	f.kill = resize(f.kill, n)
	clear(f.kill)
	kill := f.kill
	liveOut := f.liveness()
	for pc := 0; pc+1 < n; pc++ {
		if kill[pc] || f.leader[pc+1] || !f.sameAttr(pc, pc+1) {
			continue
		}
		a, b := &f.code[pc], &f.code[pc+1]
		deadAfter := func(t Reg) bool {
			if writesRd(b) && b.Rd == t {
				return true
			}
			return liveOut[pc+1]&(uint64(1)<<(t&63)) == 0
		}
		var fused Inst
		var counter *int
		switch {
		// compare + branch-on-zero -> CMPBR / CMPBRI
		case (b.Op == BEQZ || b.Op == BNEZ) && writesRd(a) && a.Rd != RZero &&
			b.Rs == a.Rd && liveOut[pc+1]&(uint64(1)<<(a.Rd&63)) == 0:
			sub, imm, ok := cmpSub(a.Op)
			if !ok {
				continue
			}
			sense := Reg(0)
			if b.Op == BNEZ {
				sense = 1
			}
			fused = Inst{Op: CMPBR, Rd: sense, Rs: a.Rs, Rt: a.Rt, Sub: sub, Target: b.Target}
			if imm {
				fused.Op = CMPBRI
				fused.Rt = 0
				fused.Imm = a.Imm
			}
			counter = &f.stats.CmpBranchFused

		// load + ALU over the loaded value -> LDOP / LDOPR
		case a.Op == LD && a.Rd != RZero && ldSub(b.Op) &&
			(b.Rs == a.Rd) != (b.Rt == a.Rd) && deadAfter(a.Rd):
			t := a.Rd
			fused = Inst{Op: LDOP, Rd: b.Rd, Rs: a.Rs, Sub: b.Op, Imm: a.Imm}
			if b.Rs == t {
				fused.Op = LDOPR // Mem[addr] op Regs[Rt]
				fused.Rt = b.Rt
			} else {
				fused.Rt = b.Rs // Regs[Rt] op Mem[addr]
			}
			counter = &f.stats.LoadOpFused

		// multiply-by-constant + add -> MADDI
		case a.Op == MULI && a.Rd != RZero && b.Op == ADD &&
			(b.Rs == a.Rd) != (b.Rt == a.Rd) && deadAfter(a.Rd):
			other := b.Rs
			if b.Rs == a.Rd {
				other = b.Rt
			}
			fused = Inst{Op: MADDI, Rd: b.Rd, Rs: a.Rs, Rt: other, Imm: a.Imm}
			counter = &f.stats.MulAddFused

		// immediate-add chain -> single ADDI (cost of both absorbed)
		case a.Op == ADDI && a.Rd != RZero && b.Op == ADDI && b.Rs == a.Rd &&
			deadAfter(a.Rd) && FitsImm(a.Imm+b.Imm):
			fused = Inst{Op: ADDI, Rd: b.Rd, Rs: a.Rs, Imm: a.Imm + b.Imm, XCost: 1, XInsts: 1}
			counter = &f.stats.AddChainsFused

		default:
			continue
		}
		// Carry both halves' absorbed cost and count.
		xc := uint64(fused.XCost) + uint64(a.XCost) + uint64(b.XCost)
		xn := uint64(fused.XInsts) + uint64(a.XInsts) + uint64(b.XInsts)
		if xc > 255 || xn > 255 {
			continue
		}
		fused.XCost = uint8(xc)
		fused.XInsts = uint8(xn)
		f.code[pc] = fused
		kill[pc+1] = true
		*counter++
		pc++ // the killed slot cannot start another pair
	}
}

// threadJumps retargets BR instructions that land on another BR, absorbing
// the skipped branch's static cost and taken penalty. Only unconditional
// chains thread (the absorbed cost is charged on every execution), and
// never through a region-entry marker or a parked self-branch.
func (f *fuser) threadJumps() {
	for pass := 0; pass < 4; pass++ {
		changed := false
		for pc := range f.code {
			in := &f.code[pc]
			if in.Op != BR || in.Target == pc {
				continue
			}
			t := in.Target
			if t < 0 || t >= len(f.code) || f.entry[t] {
				continue
			}
			inner := &f.code[t]
			if inner.Op != BR || inner.Target == t {
				continue
			}
			if !f.sameAttr(pc, t) {
				continue
			}
			// Absorb: inner BR's static cost plus its taken penalty.
			xc := uint64(in.XCost) + uint64(CostBranch+CostTaken) + uint64(inner.XCost)
			xn := uint64(in.XInsts) + 1 + uint64(inner.XInsts)
			if xc > 255 || xn > 255 {
				continue
			}
			in.XCost = uint8(xc)
			in.XInsts = uint8(xn)
			in.Target = inner.Target
			f.stats.BranchesThreaded++
			changed = true
		}
		if !changed {
			break
		}
	}
}
