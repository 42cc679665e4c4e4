package vm

import "fmt"

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// RaceEnabled reports whether the race detector is on; it makes sync.Pool
// drop a random share of Puts, so pooled scratch is not reliably warm.
func RaceEnabled() bool { return raceEnabled }

// FuseFresh runs the fusion pipeline on new scratch, bypassing the pool:
// the reference a pooled Fuse of the same input must match.
func FuseFresh(code []Inst, opts FuseOptions) FuseResult {
	return new(fuser).fuse(code, opts)
}

// CheckPlan verifies seg's execution plan against its code: the blocks
// partition [0, n) in order, every pc names its enclosing block, a block
// has one attribution and carries an entry marker only at its start, and
// each block's cost, extra cost and instruction count equal the sums of
// its per-pc values, as do the prefix sums.
func CheckPlan(seg *Segment) error {
	p := buildPlan(seg)
	n := len(seg.Code)
	if len(p.info) != n || len(p.sums) != n+1 {
		return fmt.Errorf("plan sized %d/%d for %d pcs", len(p.info), len(p.sums), n)
	}
	var sum pcSums
	for pc, in := range seg.Code {
		pi := p.info[pc]
		if uint64(pi.cost) != StaticCost(&in) || uint64(pi.insts) != InstCount(&in) {
			return fmt.Errorf("pc %d: cost %d insts %d, want %d %d",
				pc, pi.cost, pi.insts, StaticCost(&in), InstCount(&in))
		}
		if p.sums[pc] != sum {
			return fmt.Errorf("pc %d: prefix sums %+v, want %+v", pc, p.sums[pc], sum)
		}
		sum.cost += uint64(pi.cost)
		sum.insts += uint64(pi.insts)
		if in.Op == LI && !FitsImm(in.Imm) {
			sum.xtra++
		}
	}
	if p.sums[n] != sum {
		return fmt.Errorf("end: prefix sums %+v, want %+v", p.sums[n], sum)
	}
	next := 0
	for bi, b := range p.blocks {
		if int(b.start) != next || b.end <= b.start || int(b.end) > n {
			return fmt.Errorf("block %d [%d, %d) does not continue the partition at %d",
				bi, b.start, b.end, next)
		}
		var cost, xtra, insts uint64
		for pc := int(b.start); pc < int(b.end); pc++ {
			pi := p.info[pc]
			if int(pi.block) != bi {
				return fmt.Errorf("pc %d: block %d, want %d", pc, pi.block, bi)
			}
			if pi.region != b.region || pi.setup != b.setup {
				return fmt.Errorf("pc %d: attribution %d/%v inside block %d (%d/%v)",
					pc, pi.region, pi.setup, bi, b.region, b.setup)
			}
			if pc > int(b.start) && pi.entry >= 0 {
				return fmt.Errorf("pc %d: entry marker inside block %d", pc, bi)
			}
			cost += uint64(pi.cost)
			insts += uint64(pi.insts)
			if in := &seg.Code[pc]; in.Op == LI && !FitsImm(in.Imm) {
				xtra++
			}
		}
		if b.entry != p.info[b.start].entry {
			return fmt.Errorf("block %d: entry %d, want %d", bi, b.entry, p.info[b.start].entry)
		}
		if b.cost != cost || b.xtra != xtra || b.insts != insts {
			return fmt.Errorf("block %d: cost/xtra/insts %d/%d/%d, per-pc sums %d/%d/%d",
				bi, b.cost, b.xtra, b.insts, cost, xtra, insts)
		}
		next = int(b.end)
	}
	if next != n {
		return fmt.Errorf("blocks cover [0, %d) of %d pcs", next, n)
	}
	if cap(p.blocks) != len(p.blocks) {
		return fmt.Errorf("block table has cap %d for %d blocks", cap(p.blocks), len(p.blocks))
	}
	return nil
}
