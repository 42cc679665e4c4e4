// Package stitcher implements the paper's dynamic compiler (section 4).
// Given the machine-code templates, directives and the run-time constants
// table computed by set-up code, the stitcher copies templates into an
// executable code segment, patching holes with constant values, resolving
// constant branches (dead-code elimination), completely unrolling annotated
// loops by walking the per-iteration linked table records, maintaining a
// linearized table for large and non-integer constants, and applying
// peephole strength reduction that exploits the actual constant values.
//
// Emission walks the template structure directly. Record contexts are
// dense per-loop windows bump-allocated from an arena, block emissions are
// memoized in an integer-keyed table, and every buffer lives in pooled
// scratch, so a warm stitch performs no allocation until the finished
// segment is materialized.
package stitcher

import (
	"fmt"
	"sync"

	"dyncc/internal/tmpl"
	"dyncc/internal/vm"
)

// Options control optional stitcher behaviour.
type Options struct {
	// NoStrengthReduction disables the value-based peephole rewrites
	// (ablation switch; the paper's Table 3 "strength reduction" column).
	NoStrengthReduction bool
	// NoFuse disables post-stitch superinstruction fusion (ablation
	// switch; fusion is host-side only and modeled-cost neutral).
	NoFuse bool
	// RegisterActions enables the Wall-style register-action extension
	// (paper section 5): promotion of stack/array slots addressed by
	// run-time-constant offsets into reserved registers.
	RegisterActions bool
}

// Stats reports what one stitch did.
type Stats struct {
	InstsStitched      int
	HolesPatched       int
	BranchesResolved   int // constant branches eliminated (dead code elim)
	LoopIterations     int // unrolled copies emitted
	StrengthReductions int
	LargeConsts        int
	LoadsPromoted      int // register actions: loads replaced by registers
	StoresPromoted     int
	CyclesModeled      uint64
	Fusion             vm.FuseStats // post-stitch superinstruction fusion
}

// Add accumulates o into s, field by field. Fusion describes one stitch
// and is not summed.
func (s *Stats) Add(o *Stats) {
	s.InstsStitched += o.InstsStitched
	s.HolesPatched += o.HolesPatched
	s.BranchesResolved += o.BranchesResolved
	s.LoopIterations += o.LoopIterations
	s.StrengthReductions += o.StrengthReductions
	s.LargeConsts += o.LargeConsts
	s.LoadsPromoted += o.LoadsPromoted
	s.StoresPromoted += o.StoresPromoted
	s.CyclesModeled += o.CyclesModeled
}

// Modeled cycle costs of stitcher work, charged per action. The stitcher
// itself is host code; these constants stand in for the directive
// interpreter the paper measures (whose cost dominates its Table 2
// overhead column).
const (
	costPerInst   = 6  // copy one template instruction
	costPerHole   = 10 // patch one hole (table lookup + encode)
	costPerBlock  = 12 // directive bookkeeping per block visited
	costPerBranch = 8  // resolve a constant branch
	costPerIter   = 14 // advance to the next loop record
	costPerLConst = 6  // install a large constant
)

// Retention caps for pooled scratch state. Stitching is bursty, so buffers
// are pooled across calls — but one pathological stitch (a deeply unrolled
// region) must not pin its high-water marks forever. Anything grown past
// these thresholds is dropped when the scratch returns to the pool.
const (
	maxPooledCode      = 1 << 14 // out buffer, instructions
	maxPooledConsts    = 1 << 10 // large-constant table entries
	maxPooledMemoEnts  = 1 << 12 // memoized block emissions
	maxPooledKeyWords  = 1 << 14 // memo key arena, words
	maxPooledCtxChunks = 8       // record-context arena chunks
)

// scratch holds the per-stitch working state. The stitch struct itself is
// pooled (not just its buffers) so a warm stitch performs no allocation
// before segment materialization.
type scratch struct{ st stitch }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Stitch instantiates region's templates against the run-time constants
// table at tableBase in mem, producing an executable segment whose exits
// XFER back into parent. Stitch is safe to call concurrently (the runtime
// singleflights concurrent stitches of the same specialization, but
// distinct specializations may stitch in parallel).
func Stitch(region *tmpl.Region, mem []int64, tableBase int64,
	parent *vm.Segment, opts Options) (*vm.Segment, Stats, error) {

	sc := scratchPool.Get().(*scratch)
	st := &sc.st
	st.begin(region, mem, tableBase, opts)
	if err := st.emit(); err != nil {
		st.release(sc)
		return nil, Stats{}, err
	}
	seg := st.materialize(parent)
	stats := st.statsVal
	st.release(sc)
	return seg, stats, nil
}

// DryStitch runs the full emission pipeline — block walk, hole patching,
// branch resolution, loop unrolling, peephole cleanup — without
// materializing a segment. It isolates emission cost from the segment and
// fusion allocations of a real stitch for BenchmarkDryStitch and
// TestStitchWarmZeroAllocs; on warm scratch it is allocation-free.
func DryStitch(region *tmpl.Region, mem []int64, tableBase int64,
	opts Options) (Stats, error) {

	sc := scratchPool.Get().(*scratch)
	st := &sc.st
	st.begin(region, mem, tableBase, opts)
	err := st.emit()
	if err == nil {
		st.statsVal.InstsStitched = len(st.out)
		st.statsVal.CyclesModeled += uint64(costPerInst * len(st.out))
	}
	stats := st.statsVal
	st.release(sc)
	return stats, err
}

type stitch struct {
	r    *tmpl.Region
	mem  []int64
	tbl  int64
	opts Options

	out    []vm.Inst
	consts []int64
	cindex map[int64]int

	// Emission memo table: open addressing over integer keys held in a
	// flat arena. A key is the block index followed by the active record
	// address of each enclosing unrolled loop in ascending-id order; it
	// identifies one emission of a block exactly as the old string ctxKey
	// did, without the per-emission fmt/sort/map cost.
	memoSlots   []int32 // hash slot -> memoEntries index, or -1
	memoEntries []memoEntry
	memoKeys    []int64
	keyBuf      []int64

	// Record contexts: dense per-loop windows (index = loop id, value =
	// active record address, -1 = no active record) bump-allocated from a
	// chunked arena so windows never move as the arena grows.
	ctx    ctxArena
	nSlots int // window length: 1 + the region's max loop id

	// Loop lookup and chain scratch.
	loopByID []*tmpl.Loop
	fromBuf  []int // chain scratch
	toBuf    []int
	sortBuf  []int
	enterBuf []int

	// Cleanup-pass scratch (peephole, NOP stripping, dead-write marking).
	pcBuf   []int
	keepBuf []bool

	statsVal Stats
	stats    *Stats
}

type memoEntry struct {
	off, n int32 // key: memoKeys[off : off+n]
	pc     int32
}

// begin resets pooled state and binds the stitch to one region/table.
func (st *stitch) begin(region *tmpl.Region, mem []int64, tableBase int64, opts Options) {
	st.r = region
	st.mem = mem
	st.tbl = tableBase
	st.opts = opts
	st.out = st.out[:0]
	st.consts = st.consts[:0]
	if st.cindex == nil {
		st.cindex = make(map[int64]int, 16)
	} else {
		clear(st.cindex)
	}
	st.memoEntries = st.memoEntries[:0]
	st.memoKeys = st.memoKeys[:0]
	for i := range st.memoSlots {
		st.memoSlots[i] = -1
	}
	st.ctx.reset()
	st.statsVal = Stats{}
	st.stats = &st.statsVal

	maxID := -1
	for _, l := range region.Loops {
		if l.ID > maxID {
			maxID = l.ID
		}
	}
	st.nSlots = maxID + 1
	st.loopByID = st.loopByID[:0]
	for i := 0; i <= maxID; i++ {
		st.loopByID = append(st.loopByID, nil)
	}
	for _, l := range region.Loops {
		st.loopByID[l.ID] = l
	}
}

// release trims oversized buffers, drops every reference to caller-owned
// data (the pool must never pin a machine's memory or a region), and
// returns the scratch to the pool.
func (st *stitch) release(sc *scratch) {
	if cap(st.out) > maxPooledCode {
		st.out = nil
	}
	if cap(st.consts) > maxPooledConsts {
		st.consts = nil
	}
	if len(st.cindex) > maxPooledConsts {
		st.cindex = nil
	}
	if cap(st.memoEntries) > maxPooledMemoEnts {
		st.memoEntries, st.memoSlots = nil, nil
	}
	if cap(st.memoKeys) > maxPooledKeyWords {
		st.memoKeys = nil
	}
	st.ctx.trim(maxPooledCtxChunks)
	st.r, st.mem, st.stats = nil, nil, nil
	for i := range st.loopByID {
		st.loopByID[i] = nil
	}
	scratchPool.Put(sc)
}

// emit runs block emission from the region entry plus the shared cleanup
// passes, leaving the finished code in st.out.
func (st *stitch) emit() error {
	entryPC, err := st.emitBlock(st.r.Entry, st.rootCtx())
	if err != nil {
		return err
	}
	if entryPC != 0 {
		return fmt.Errorf("stitch: entry not at pc 0")
	}
	st.peephole()
	for i := 0; i < 4; i++ {
		st.keepBuf = growBools(st.keepBuf, len(st.out)+1)
		if vm.DeadWriteNopsBuf(st.out, st.keepBuf) == 0 {
			break
		}
		st.stripNops()
	}
	if st.opts.RegisterActions {
		st.registerActions()
	}
	return nil
}

// materialize copies the finished emission into an exact-size executable
// segment. A warm stitch allocates only what the segment keeps: the
// Segment, its code, its constants (when there are any) and its execution
// plan.
func (st *stitch) materialize(parent *vm.Segment) *vm.Segment {
	st.stats.InstsStitched = len(st.out)
	st.stats.CyclesModeled += uint64(costPerInst * len(st.out))

	var code []vm.Inst
	if st.opts.NoFuse {
		code = make([]vm.Inst, len(st.out))
		copy(code, st.out)
	} else {
		// Superinstruction fusion on the finished stitch, straight from
		// the pooled buffer (Fuse returns a fresh exact-size copy). Runs
		// after the stats above so Table 2/3 report the pre-fusion stitch
		// work; modeled guest cycles are unchanged by construction.
		// Stitched code has uniform attribution, no entry markers and no
		// jump tables; its XFERs target the parent and are left alone.
		fr := vm.Fuse(st.out, vm.FuseOptions{})
		code = fr.Code
		st.stats.Fusion = fr.Stats
	}
	var consts []int64
	if len(st.consts) > 0 {
		consts = make([]int64, len(st.consts))
		copy(consts, st.consts)
	}
	seg := &vm.Segment{
		Name:     stitchedName(st.r),
		Code:     code,
		Consts:   consts,
		Parent:   parent,
		Region:   st.r.Index,
		Stitched: true,
	}
	seg.Prepare() // pay plan derivation at stitch time, not first run
	return seg
}

// stitchedName names a stitched segment of r. Codegen sets
// r.StitchedName once per region; hand-built regions fall back to
// deriving it.
func stitchedName(r *tmpl.Region) string {
	if r.StitchedName != "" {
		return r.StitchedName
	}
	return r.Name + ".stitched"
}

func (st *stitch) add(in vm.Inst) int {
	st.out = append(st.out, in)
	return len(st.out) - 1
}

// ---- record contexts ----

// ctxArena bump-allocates record-context windows in fixed chunks, so
// outstanding windows never move when the arena grows and the chunks are
// reused across stitches.
type ctxArena struct {
	chunks [][]int64
	ci     int // chunk cursor
	off    int // offset within chunks[ci]
}

const ctxChunkWords = 2048

func (a *ctxArena) reset() { a.ci, a.off = 0, 0 }

func (a *ctxArena) trim(maxChunks int) {
	if len(a.chunks) > maxChunks {
		a.chunks = a.chunks[:maxChunks]
	}
}

func (a *ctxArena) alloc(n int) []int64 {
	if n == 0 {
		return nil
	}
	for {
		if a.ci < len(a.chunks) {
			ch := a.chunks[a.ci]
			if a.off+n <= len(ch) {
				w := ch[a.off : a.off+n : a.off+n]
				a.off += n
				return w
			}
			a.ci++
			a.off = 0
			continue
		}
		size := ctxChunkWords
		if n > size {
			size = n
		}
		a.chunks = append(a.chunks, make([]int64, size))
	}
}

// rootCtx returns the entry context: no loop has an active record.
func (st *stitch) rootCtx() []int64 {
	w := st.ctx.alloc(st.nSlots)
	for i := range w {
		w[i] = -1
	}
	return w
}

// ---- emission memo table ----

func memoHash(key []int64) uint64 {
	h := uint64(14695981039346656037) // FNV-1a
	for _, k := range key {
		h ^= uint64(k)
		h *= 1099511628211
	}
	return h
}

func (st *stitch) memoGet(key []int64) (int, bool) {
	n := len(st.memoSlots)
	if n == 0 {
		return 0, false
	}
	mask := uint64(n - 1)
	for i := memoHash(key) & mask; ; i = (i + 1) & mask {
		ei := st.memoSlots[i]
		if ei < 0 {
			return 0, false
		}
		e := &st.memoEntries[ei]
		if int(e.n) == len(key) && keysEqual(st.memoKeys[e.off:e.off+e.n], key) {
			return int(e.pc), true
		}
	}
}

func (st *stitch) memoPut(key []int64, pc int) {
	if len(st.memoSlots) == 0 || (len(st.memoEntries)+1)*4 > len(st.memoSlots)*3 {
		st.memoGrow()
	}
	off := len(st.memoKeys)
	st.memoKeys = append(st.memoKeys, key...)
	st.memoEntries = append(st.memoEntries, memoEntry{off: int32(off), n: int32(len(key)), pc: int32(pc)})
	st.memoInsert(int32(len(st.memoEntries)-1), key)
}

func (st *stitch) memoInsert(ei int32, key []int64) {
	mask := uint64(len(st.memoSlots) - 1)
	i := memoHash(key) & mask
	for st.memoSlots[i] >= 0 {
		i = (i + 1) & mask
	}
	st.memoSlots[i] = ei
}

func (st *stitch) memoGrow() {
	n := len(st.memoSlots) * 2
	if n < 64 {
		n = 64
	}
	if cap(st.memoSlots) >= n {
		st.memoSlots = st.memoSlots[:n]
	} else {
		st.memoSlots = make([]int32, n)
	}
	for i := range st.memoSlots {
		st.memoSlots[i] = -1
	}
	for ei := range st.memoEntries {
		e := &st.memoEntries[ei]
		st.memoInsert(int32(ei), st.memoKeys[e.off:e.off+e.n])
	}
}

func keysEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---- slot resolution ----

// readSlot resolves a slot reference (LoopID -1 = region table, else the
// loop's active record) and reads its value.
func (st *stitch) readSlot(ref tmpl.SlotRef, ctx []int64) (int64, error) {
	base := st.tbl
	if loopID := ref.LoopID; loopID >= 0 {
		if loopID >= len(ctx) || ctx[loopID] < 0 {
			return 0, fmt.Errorf("stitch: no active record for loop %d", loopID)
		}
		base = ctx[loopID]
	}
	a := base + int64(ref.Slot)
	if a < 0 || a >= int64(len(st.mem)) {
		return 0, fmt.Errorf("stitch: table slot out of bounds (%d)", a)
	}
	return st.mem[a], nil
}

// largeConst interns v in the linearized large-constant table.
func (st *stitch) largeConst(v int64) int64 {
	if i, ok := st.cindex[v]; ok {
		return int64(i)
	}
	i := len(st.consts)
	st.consts = append(st.consts, v)
	st.cindex[v] = i
	st.stats.LargeConsts++
	st.stats.CyclesModeled += costPerLConst
	return int64(i)
}

// ---- block emission ----

// chainInto writes the enclosing-loop ids of block bi into *buf,
// innermost first, and returns the filled slice.
func (st *stitch) chainInto(buf *[]int, bi int) []int {
	ids := (*buf)[:0]
	id := st.r.Blocks[bi].LoopID
	for id >= 0 {
		ids = append(ids, id)
		id = st.loopByID[id].ParentID
	}
	*buf = ids
	return ids
}

func inChain(chain []int, id int) bool {
	for _, c := range chain {
		if c == id {
			return true
		}
	}
	return false
}

// memoKey builds the integer memo key for one emission of block bi: the
// block index, then the active record of each enclosing loop in
// ascending-id order (a tiny insertion sort; chains are a handful of ids).
func (st *stitch) memoKey(bi int, ctx []int64) []int64 {
	ids := st.sortBuf[:0]
	id := st.r.Blocks[bi].LoopID
	for id >= 0 {
		cur := id
		pos := len(ids)
		ids = append(ids, 0)
		for pos > 0 && ids[pos-1] > cur {
			ids[pos] = ids[pos-1]
			pos--
		}
		ids[pos] = cur
		id = st.loopByID[cur].ParentID
	}
	st.sortBuf = ids
	k := append(st.keyBuf[:0], int64(bi))
	for _, lid := range ids {
		k = append(k, ctx[lid])
	}
	st.keyBuf = k
	return k
}

// transition computes the record context for following the edge from -> to,
// reading header slots when entering loops and advancing along the record
// chain on back edges. The new window carries only the target's chain
// loops; everything else is masked to "no active record".
func (st *stitch) transition(from, to int, ctx []int64) ([]int64, error) {
	fromChain := st.chainInto(&st.fromBuf, from)
	toChain := st.chainInto(&st.toBuf, to)
	nctx := st.ctx.alloc(st.nSlots)
	for i := range nctx {
		nctx[i] = -1
	}
	for _, id := range toChain {
		nctx[id] = ctx[id]
	}
	// Entering loops: outermost-first so parent records resolve.
	entering := st.enterBuf[:0]
	for _, id := range toChain {
		if !inChain(fromChain, id) {
			entering = append(entering, id)
		}
	}
	st.enterBuf = entering
	for i := len(entering) - 1; i >= 0; i-- {
		l := st.loopByID[entering[i]]
		if l.HeadBlock != to {
			return nil, fmt.Errorf("stitch: loop %d entered at non-head block %d", l.ID, to)
		}
		rec, err := st.readSlot(l.HeaderSlot, nctx)
		if err != nil {
			return nil, err
		}
		nctx[l.ID] = rec
	}
	// Back edge: advance to the next record (RESTART_LOOP).
	for _, id := range toChain {
		l := st.loopByID[id]
		if l.HeadBlock == to && inChain(fromChain, id) {
			rec := nctx[id]
			if rec < 0 {
				return nil, fmt.Errorf("stitch: no active record for loop %d", id)
			}
			a := rec + int64(l.NextSlot)
			if a < 0 || a >= int64(len(st.mem)) {
				return nil, fmt.Errorf("stitch: record link out of bounds (%d)", a)
			}
			nctx[id] = st.mem[a]
			st.stats.LoopIterations++
			st.stats.CyclesModeled += costPerIter
		}
	}
	return nctx, nil
}

// emitEdge emits (or reuses) the code for following edge e out of block
// `from` and returns the target pc.
func (st *stitch) emitEdge(from int, e tmpl.Edge, ctx []int64) (int, error) {
	if e.Block < 0 {
		// Region exit: a transfer stub back into the enclosing function.
		pc := st.add(vm.Inst{Op: vm.XFER, Target: e.ExitPC})
		return pc, nil
	}
	nctx, err := st.transition(from, e.Block, ctx)
	if err != nil {
		return 0, err
	}
	return st.emitBlock(e.Block, nctx)
}

// emitBlock instantiates block bi under record context ctx (memoized; the
// memo entry is installed before emission so record-chain cycles
// terminate).
func (st *stitch) emitBlock(bi int, ctx []int64) (int, error) {
	key := st.memoKey(bi, ctx)
	if pc, ok := st.memoGet(key); ok {
		return pc, nil
	}
	start := len(st.out)
	st.memoPut(key, start)
	st.stats.CyclesModeled += costPerBlock

	b := st.r.Blocks[bi]
	holes := b.Holes
	sorted := true
	for i := 1; i < len(holes); i++ {
		if holes[i].Pc < holes[i-1].Pc {
			sorted = false
			break
		}
	}
	hi := 0
	for pc, in := range b.Code {
		var h *tmpl.Hole
		if sorted {
			for hi < len(holes) && holes[hi].Pc < pc {
				hi++
			}
			for j := hi; j < len(holes) && holes[j].Pc == pc; j++ {
				h = &holes[j] // duplicates: last wins
			}
		} else {
			for j := range holes {
				if holes[j].Pc == pc {
					h = &holes[j]
				}
			}
		}
		if h != nil {
			v, err := st.readSlot(h.Slot, ctx)
			if err != nil {
				return 0, err
			}
			st.patch(in, v)
			st.stats.HolesPatched++
			st.stats.CyclesModeled += costPerHole
		} else {
			st.add(in)
		}
	}

	t := b.Term
	switch t.Kind {
	case tmpl.TermRet:
		st.add(vm.Inst{Op: vm.RET})

	case tmpl.TermJump:
		brPC := st.add(vm.Inst{Op: vm.BR})
		tpc, err := st.emitEdge(bi, t.Succs[0], ctx)
		if err != nil {
			return 0, err
		}
		st.out[brPC].Target = tpc

	case tmpl.TermBr:
		if t.ConstSlot != nil {
			// CONST_BRANCH: resolve now; the untaken path is dead code.
			v, err := st.readSlot(*t.ConstSlot, ctx)
			if err != nil {
				return 0, err
			}
			e := t.Succs[1]
			if v != 0 {
				e = t.Succs[0]
			}
			st.stats.BranchesResolved++
			st.stats.CyclesModeled += costPerBranch
			brPC := st.add(vm.Inst{Op: vm.BR})
			tpc, err := st.emitEdge(bi, e, ctx)
			if err != nil {
				return 0, err
			}
			st.out[brPC].Target = tpc
			break
		}
		bnezPC := st.add(vm.Inst{Op: vm.BNEZ, Rs: t.CondReg})
		brPC := st.add(vm.Inst{Op: vm.BR})
		fpc, err := st.emitEdge(bi, t.Succs[1], ctx)
		if err != nil {
			return 0, err
		}
		tpc, err := st.emitEdge(bi, t.Succs[0], ctx)
		if err != nil {
			return 0, err
		}
		st.out[bnezPC].Target = tpc
		st.out[brPC].Target = fpc

	case tmpl.TermSwitch:
		v, err := st.readSlot(*t.ConstSlot, ctx)
		if err != nil {
			return 0, err
		}
		e := t.Succs[len(t.Cases)] // default
		for i, c := range t.Cases {
			if c == v {
				e = t.Succs[i]
				break
			}
		}
		st.stats.BranchesResolved++
		st.stats.CyclesModeled += costPerBranch
		brPC := st.add(vm.Inst{Op: vm.BR})
		tpc, err := st.emitEdge(bi, e, ctx)
		if err != nil {
			return 0, err
		}
		st.out[brPC].Target = tpc

	default:
		return 0, fmt.Errorf("stitch: unknown terminator kind %d", t.Kind)
	}
	return start, nil
}

// ---- scratch growth helpers ----

func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}
