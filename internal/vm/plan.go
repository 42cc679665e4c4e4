package vm

// The execution plan precomputes, once per segment, everything the seed
// interpreter re-derived on every step: per-pc cycle attribution
// (stitched-region / static-region / set-up), region-entry invocation
// markers, and static instruction costs. On top of the per-pc tables it
// lays out basic blocks with summed costs so the interpreter can charge a
// whole straight-line run with one update per counter at block entry,
// falling back to exact per-instruction accounting when tracing, when the
// cycle budget is nearly exhausted, or when control enters a block
// mid-way (e.g. a stitched segment XFERing into its parent).
//
// The invariant throughout: for any execution, the machine's Cycles,
// Insts and per-region counters are bit-identical to what the seed
// per-instruction loop would have produced.

// planBlock is one straight-line run: [start, end) with uniform
// attribution, entered only at start (or handled exactly otherwise).
type planBlock struct {
	start  int32
	end    int32  // exclusive
	cost   uint64 // summed static cost, attributed to region when >= 0
	xtra   uint64 // summed machine-only cycles (wide-LI penalties)
	insts  uint64 // summed guest instruction count
	region int32  // uniform attribution region, or -1
	entry  int32  // region invoked when the block is entered at start, or -1
	setup  bool   // attribute cost to SetupCycles instead of ExecCycles
}

// pcInfo is the exact-mode record for one instruction (trace mode,
// budget-near mode, mid-block entry), reproducing the seed's
// per-instruction accounting.
type pcInfo struct {
	region int32  // attributed region, or -1
	entry  int32  // region invoked when this pc executes, or -1
	block  int32  // index of the enclosing block
	cost   uint16 // StaticCost of the instruction
	insts  uint8  // InstCount of the instruction
	setup  bool   // attribute cost to SetupCycles instead of ExecCycles
}

// pcSums holds prefix sums over the instructions before a pc, for
// unwinding a block's pre-charge when an instruction traps mid-block:
// sums[i].cost = sum of StaticCost over pcs [0, i).
type pcSums struct {
	cost  uint64
	xtra  uint64 // machine-only cycles (wide-LI penalties)
	insts uint64
}

// execPlan is the per-segment derived plan. It is machine-independent
// (indices, never counter pointers: a machine's region slice may grow) and
// immutable once built, so all machines running the segment share it.
// It is laid out in four allocations: the plan itself, one pcInfo slab,
// one prefix-sum slab and the exactly sized block table.
type execPlan struct {
	blocks []planBlock
	info   []pcInfo // per pc
	sums   []pcSums // len+1 entries
}

// buildPlan derives the execution plan from an immutable segment.
func buildPlan(seg *Segment) *execPlan {
	n := len(seg.Code)
	p := &execPlan{
		info: make([]pcInfo, n),
		sums: make([]pcSums, n+1),
	}

	// Per-pc attribution, mirroring the seed's per-step re-derivation,
	// and prefix sums.
	for pc := range seg.Code {
		r, setup := int32(-1), false
		if seg.Stitched && seg.Region >= 0 {
			r = int32(seg.Region)
		} else if seg.RegionOf != nil && pc < len(seg.RegionOf) && seg.RegionOf[pc] >= 0 {
			r = int32(seg.RegionOf[pc])
			setup = seg.SetupOf != nil && pc < len(seg.SetupOf) && seg.SetupOf[pc]
		}
		in := &seg.Code[pc]
		pi := &p.info[pc]
		*pi = pcInfo{
			region: r,
			entry:  -1,
			cost:   uint16(StaticCost(in)),
			insts:  uint8(InstCount(in)),
			setup:  setup,
		}
		xtra := uint64(0)
		if in.Op == LI && !FitsImm(in.Imm) {
			xtra = 1 // wide-constant penalty: machine cycles only
		}
		s := p.sums[pc]
		p.sums[pc+1] = pcSums{
			cost:  s.cost + uint64(pi.cost),
			xtra:  s.xtra + xtra,
			insts: s.insts + uint64(pi.insts),
		}
	}
	for pc, r := range seg.RegionEntry {
		if pc < n && r >= 0 {
			p.info[pc].entry = r
		}
	}

	// Block leaders: entry, branch targets, jump-table entries,
	// instructions after a control transfer, attribution changes and
	// region-entry markers. Until the blocks are laid out, info[pc].block
	// is the leader flag (1 for a leader, 0 otherwise).
	mark := func(pc int) {
		if pc >= 0 && pc < n {
			p.info[pc].block = 1
		}
	}
	mark(0)
	for pc, in := range seg.Code {
		switch in.Op {
		case BEQZ, BNEZ, BEQI, CMPBR, CMPBRI:
			mark(in.Target)
			mark(pc + 1)
		case BR:
			mark(in.Target)
			mark(pc + 1)
		case JTBL, CALL, RET, XFER, HALT, DYNENTER, DYNSTITCH, GUARD:
			// GUARD's taken target is a parent-segment pc (like XFER's),
			// never a leader in this segment.
			mark(pc + 1)
		}
	}
	for _, tbl := range seg.JumpTables {
		for _, t := range tbl {
			mark(t)
		}
	}
	nblocks := 0
	for pc := 0; pc < n; pc++ {
		if pc > 0 {
			a, b := &p.info[pc-1], &p.info[pc]
			if b.region != a.region || b.setup != a.setup || b.entry >= 0 {
				b.block = 1
			}
		}
		nblocks += int(p.info[pc].block)
	}

	// Lay out blocks and sum their costs.
	p.blocks = make([]planBlock, 0, nblocks)
	for pc := 0; pc < n; {
		end := pc + 1
		for end < n && p.info[end].block == 0 {
			end++
		}
		pi := &p.info[pc]
		b := planBlock{
			start:  int32(pc),
			end:    int32(end),
			cost:   p.sums[end].cost - p.sums[pc].cost,
			xtra:   p.sums[end].xtra - p.sums[pc].xtra,
			insts:  p.sums[end].insts - p.sums[pc].insts,
			region: pi.region,
			setup:  pi.setup,
			entry:  pi.entry,
		}
		bi := int32(len(p.blocks))
		p.blocks = append(p.blocks, b)
		for i := pc; i < end; i++ {
			p.info[i].block = bi
		}
		pc = end
	}
	return p
}
