package stitcher

// The generic tier: an unspecialized, key-independent rendering of a
// region's templates. Where the stitcher reads the run-time constants
// table at stitch time and bakes the values into the code (patched
// immediates, resolved branches, unrolled loops), the generic tier defers
// every one of those reads to run time: holes become loads from the live
// table, constant branches become real branches on the loaded value, and
// unrolled loops stay rolled, walking the per-iteration record chain with
// a register instead of the stitcher's directive interpreter.
//
// One generic segment serves every key of its region — it is built once
// per region and never invalidated (it embeds no table values, only slot
// offsets, which are static compiler artifacts). The asynchronous
// stitching pipeline (internal/rtr) runs cold keys on this tier while the
// real stitch happens on a background worker, so no caller ever blocks on
// compilation; the price is per-iteration loads and un-reduced operations,
// i.e. roughly the paper's "statically compiled" cost plus a load per
// hole.
//
// Register convention: the table base arrives in vm.RScratch (exactly
// where the inline set-up's DYNSTITCH or a merged SetupFn leaves it) and
// is immediately parked in vm.RTblBase, which is dead in template and
// stitched code. Active loop records live in vm.RPromo0..RPromoLast —
// reserved for stitch-time register actions, which never run on the
// generic tier — so regions with more than len(RPromo0..RPromoLast)
// unrolled loops cannot be rendered generically and must stitch inline.

import (
	"fmt"

	"dyncc/internal/tmpl"
	"dyncc/internal/vm"
)

// maxGenericLoops is how many unrolled-loop record pointers fit in the
// reserved register range.
const maxGenericLoops = int(vm.RPromoLast-vm.RPromo0) + 1

// Generic renders region's templates as a single unspecialized segment
// whose exits XFER back into parent. It is pure (no machine memory is
// read) and safe to call concurrently.
func Generic(region *tmpl.Region, parent *vm.Segment, opts Options) (*vm.Segment, error) {
	if len(region.Loops) > maxGenericLoops {
		return nil, fmt.Errorf("generic: region %s has %d unrolled loops (max %d)",
			region.Name, len(region.Loops), maxGenericLoops)
	}
	g := &generic{
		r:       region,
		blockPC: make(map[int]int, len(region.Blocks)),
		loops:   make(map[int]*tmpl.Loop, len(region.Loops)),
		recReg:  make(map[int]vm.Reg, len(region.Loops)),
		cindex:  map[int64]int{},
	}
	for i, l := range region.Loops {
		g.loops[l.ID] = l
		g.recReg[l.ID] = vm.RPromo0 + vm.Reg(i)
	}
	if len(g.chain(region.Entry)) != 0 {
		return nil, fmt.Errorf("generic: region %s entry inside a loop", region.Name)
	}

	// Entry preamble: park the table base before anything can clobber
	// RScratch, then walk the block graph.
	g.add(vm.Inst{Op: vm.MOV, Rd: vm.RTblBase, Rs: vm.RScratch})
	g.queue = append(g.queue, region.Entry)
	g.blockPC[region.Entry] = -1 // mark queued
	for len(g.queue) > 0 {
		bi := g.queue[0]
		g.queue = g.queue[1:]
		if err := g.emitBlock(bi); err != nil {
			return nil, err
		}
	}
	for _, f := range g.fix {
		pc, ok := g.blockPC[f.block]
		if !ok || pc < 0 {
			return nil, fmt.Errorf("generic: unresolved branch to block %d", f.block)
		}
		g.out[f.pc].Target = pc
	}

	// g belongs to this call, so its buffers become the segment's as is.
	code := g.out
	if !opts.NoFuse {
		code = vm.Fuse(g.out, vm.FuseOptions{}).Code
	}
	seg := &vm.Segment{
		Name:     region.Name + ".generic",
		Code:     code,
		Consts:   g.consts,
		Parent:   parent,
		Region:   region.Index,
		Stitched: true,
	}
	seg.Prepare()
	return seg, nil
}

type generic struct {
	r       *tmpl.Region
	out     []vm.Inst
	consts  []int64
	cindex  map[int64]int
	blockPC map[int]int // block -> pc (-1 while queued, unemitted)
	queue   []int
	fix     []genFixup
	loops   map[int]*tmpl.Loop
	recReg  map[int]vm.Reg
}

type genFixup struct {
	pc    int // instruction whose Target needs the block's pc
	block int
}

func (g *generic) add(in vm.Inst) int {
	g.out = append(g.out, in)
	return len(g.out) - 1
}

// chain returns the enclosing-loop ids of block bi, innermost first.
func (g *generic) chain(bi int) []int {
	var ids []int
	id := g.r.Blocks[bi].LoopID
	for id >= 0 {
		ids = append(ids, id)
		id = g.loops[id].ParentID
	}
	return ids
}

// largeConst interns v in the segment's constant table (switch cases that
// do not fit the immediate field).
func (g *generic) largeConst(v int64) int64 {
	if i, ok := g.cindex[v]; ok {
		return int64(i)
	}
	i := len(g.consts)
	g.consts = append(g.consts, v)
	g.cindex[v] = i
	return int64(i)
}

// slotOperand resolves a table slot reference to (base register, offset):
// the region table lives at RTblBase, loop records in their reserved
// registers.
func (g *generic) slotOperand(ref tmpl.SlotRef) (vm.Reg, int64, error) {
	if !vm.FitsImm(int64(ref.Slot)) {
		return 0, 0, fmt.Errorf("generic: slot offset %d exceeds the immediate field", ref.Slot)
	}
	if ref.LoopID < 0 {
		return vm.RTblBase, int64(ref.Slot), nil
	}
	reg, ok := g.recReg[ref.LoopID]
	if !ok {
		return 0, 0, fmt.Errorf("generic: no record register for loop %d", ref.LoopID)
	}
	return reg, int64(ref.Slot), nil
}

// loadSlot emits a load of the slot's current value into rd.
func (g *generic) loadSlot(rd vm.Reg, ref tmpl.SlotRef) error {
	base, off, err := g.slotOperand(ref)
	if err != nil {
		return err
	}
	g.add(vm.Inst{Op: vm.LD, Rd: rd, Rs: base, Imm: off})
	return nil
}

// emitHole lowers one hole-carrying instruction: where the stitcher patches
// the constant in, the generic tier loads it at run time.
func (g *generic) emitHole(in vm.Inst, h tmpl.Hole) error {
	switch in.Op {
	case vm.LDC, vm.LI:
		// A constant materialization: load it straight from the table.
		return g.loadSlot(in.Rd, h.Slot)
	default:
		reg := vm.ImmToRegForm(in.Op)
		if reg == vm.NOP || !in.Op.HasImmOperand() {
			return fmt.Errorf("generic: unsupported hole op %s", in.Op)
		}
		if err := g.loadSlot(vm.RScratch2, h.Slot); err != nil {
			return err
		}
		g.add(vm.Inst{Op: reg, Rd: in.Rd, Rs: in.Rs, Rt: vm.RScratch2})
		return nil
	}
}

// emitEdge emits the code that follows edge e out of block `from`: region
// exits become XFER stubs; block edges load loop-header records when
// entering unrolled loops and advance the record register on back edges
// (the run-time equivalents of the stitcher's ENTER_LOOP / RESTART_LOOP
// directives), then branch to the target block.
func (g *generic) emitEdge(from int, e tmpl.Edge) error {
	if e.Block < 0 {
		g.add(vm.Inst{Op: vm.XFER, Target: e.ExitPC})
		return nil
	}
	fromChain := g.chain(from)
	toChain := g.chain(e.Block)
	// Entering loops: outermost-first so parent records resolve first.
	var entering []int
	for _, id := range toChain {
		if !inChain(fromChain, id) {
			entering = append(entering, id)
		}
	}
	for i := len(entering) - 1; i >= 0; i-- {
		l := g.loops[entering[i]]
		if l.HeadBlock != e.Block {
			return fmt.Errorf("generic: loop %d entered at non-head block %d", l.ID, e.Block)
		}
		if err := g.loadSlot(g.recReg[l.ID], l.HeaderSlot); err != nil {
			return err
		}
	}
	// Back edge: advance along the record chain.
	for _, id := range toChain {
		l := g.loops[id]
		if l.HeadBlock == e.Block && inChain(fromChain, id) {
			if !vm.FitsImm(int64(l.NextSlot)) {
				return fmt.Errorf("generic: record link offset %d exceeds the immediate field", l.NextSlot)
			}
			rec := g.recReg[id]
			g.add(vm.Inst{Op: vm.LD, Rd: rec, Rs: rec, Imm: int64(l.NextSlot)})
		}
	}
	pc := g.add(vm.Inst{Op: vm.BR})
	g.fix = append(g.fix, genFixup{pc: pc, block: e.Block})
	if _, ok := g.blockPC[e.Block]; !ok {
		g.blockPC[e.Block] = -1
		g.queue = append(g.queue, e.Block)
	}
	return nil
}

// emitBlock renders block bi exactly once (the generic tier never
// duplicates blocks — unrolled loops stay rolled).
func (g *generic) emitBlock(bi int) error {
	g.blockPC[bi] = len(g.out)
	b := g.r.Blocks[bi]
	holeAt := map[int]tmpl.Hole{}
	for _, h := range b.Holes {
		holeAt[h.Pc] = h
	}
	for pc, in := range b.Code {
		if h, ok := holeAt[pc]; ok {
			if err := g.emitHole(in, h); err != nil {
				return err
			}
		} else {
			g.add(in)
		}
	}

	t := b.Term
	switch t.Kind {
	case tmpl.TermRet:
		g.add(vm.Inst{Op: vm.RET})

	case tmpl.TermJump:
		return g.emitEdge(bi, t.Succs[0])

	case tmpl.TermBr:
		cond := t.CondReg
		if t.ConstSlot != nil {
			// CONST_BRANCH: the stitcher resolves this at stitch time; the
			// generic tier tests the live table value.
			if err := g.loadSlot(vm.RScratch2, *t.ConstSlot); err != nil {
				return err
			}
			cond = vm.RScratch2
		}
		bnezPC := g.add(vm.Inst{Op: vm.BNEZ, Rs: cond})
		if err := g.emitEdge(bi, t.Succs[1]); err != nil {
			return err
		}
		g.out[bnezPC].Target = len(g.out)
		return g.emitEdge(bi, t.Succs[0])

	case tmpl.TermSwitch:
		if err := g.loadSlot(vm.RScratch2, *t.ConstSlot); err != nil {
			return err
		}
		// Compare chain falling through to the default edge; case stubs
		// follow, each patched into its compare's branch target.
		cmpPC := make([]int, len(t.Cases))
		for i, c := range t.Cases {
			if vm.FitsImm(c) {
				cmpPC[i] = g.add(vm.Inst{Op: vm.BEQI, Rs: vm.RScratch2, Imm: c})
				continue
			}
			g.add(vm.Inst{Op: vm.LDC, Rd: vm.RScratch, Imm: g.largeConst(c)})
			g.add(vm.Inst{Op: vm.SEQ, Rd: vm.RScratch, Rs: vm.RScratch2, Rt: vm.RScratch})
			cmpPC[i] = g.add(vm.Inst{Op: vm.BNEZ, Rs: vm.RScratch})
		}
		if err := g.emitEdge(bi, t.Succs[len(t.Cases)]); err != nil {
			return err
		}
		for i := range t.Cases {
			g.out[cmpPC[i]].Target = len(g.out)
			if err := g.emitEdge(bi, t.Succs[i]); err != nil {
				return err
			}
		}
		return nil

	default:
		return fmt.Errorf("generic: unknown terminator kind %d", t.Kind)
	}
	return nil
}
