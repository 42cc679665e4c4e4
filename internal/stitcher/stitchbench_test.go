package stitcher

import (
	"testing"

	"dyncc/internal/tmpl"
	"dyncc/internal/vm"
)

// benchRegion hand-builds a region shaped like the stitcher's typical
// workload: a preheader with a region-table hole, then an unrolled loop of
// `iters` linked records, each contributing a patched body copy. Record
// layout: slot 0 = per-iteration hole value, slot 1 = continue flag,
// slot 2 = next-record link; the terminal record's flag is 0.
func benchRegion(iters int) (*tmpl.Region, []int64, int64) {
	const (
		tbl     = 8
		recBase = 16
		recSize = 3
	)
	mem := make([]int64, recBase+recSize*(iters+1))
	mem[tbl+0] = 7       // preheader hole value
	mem[tbl+1] = recBase // loop header record
	for i := 0; i <= iters; i++ {
		r := recBase + recSize*i
		mem[r+0] = int64(3*i + 1)
		if i < iters {
			mem[r+1] = 1
		}
		mem[r+2] = int64(r + recSize)
	}
	region := &tmpl.Region{
		Index: 0,
		Name:  "bench:r0",
		Blocks: []*tmpl.Block{
			{ // preheader
				Code:   []vm.Inst{{Op: vm.ADDI, Rd: 21, Rs: 20}},
				Holes:  []tmpl.Hole{{Pc: 0, Slot: tmpl.SlotRef{LoopID: -1, Slot: 0}}},
				Term:   tmpl.Term{Kind: tmpl.TermJump, Succs: []tmpl.Edge{{Block: 1}}},
				LoopID: -1,
			},
			{ // loop head: continue flag decides body vs region exit
				Code: []vm.Inst{{Op: vm.ADDI, Rd: 22, Rs: 22, Imm: 1}},
				Term: tmpl.Term{Kind: tmpl.TermBr,
					ConstSlot: &tmpl.SlotRef{LoopID: 0, Slot: 1},
					Succs:     []tmpl.Edge{{Block: 2}, {Block: -1, ExitPC: 9}}},
				LoopID: 0,
			},
			{ // body + latch: one hole patched per unrolled iteration
				Code: []vm.Inst{
					{Op: vm.ADDI, Rd: 21, Rs: 21},
					{Op: vm.XORI, Rd: 22, Rs: 21, Imm: 5},
				},
				Holes:  []tmpl.Hole{{Pc: 0, Slot: tmpl.SlotRef{LoopID: 0, Slot: 0}}},
				Term:   tmpl.Term{Kind: tmpl.TermJump, Succs: []tmpl.Edge{{Block: 1}}},
				LoopID: 0,
			},
		},
		Loops: []*tmpl.Loop{{
			ID: 0, ParentID: -1,
			HeaderSlot: tmpl.SlotRef{LoopID: -1, Slot: 1},
			NextSlot:   2, RecordSize: recSize,
			HeadBlock: 1, LatchBlock: 2,
		}},
		Entry: 0,
	}
	return region, mem, tbl
}

// TestBenchRegionShape pins the benchmarks' subject: the hand-built loop
// region must unroll all 32 records and patch one hole per iteration plus
// the preheader's, so the benchmarks keep timing the work they claim to.
func TestBenchRegionShape(t *testing.T) {
	parent := &vm.Segment{Name: "f", Code: make([]vm.Inst, 20), Region: -1}
	region, mem, tbl := benchRegion(32)
	_, stats, err := Stitch(region, mem, tbl, parent, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.LoopIterations != 32 || stats.HolesPatched != 33 {
		t.Errorf("stitch did %d iterations, %d holes; want 32, 33",
			stats.LoopIterations, stats.HolesPatched)
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestStitchWarmZeroAllocs is the emission allocation budget: a dry
// stitch on warm pooled scratch (everything up to segment
// materialization) must not allocate at all.
func TestStitchWarmZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a random share of Puts, so pooled scratch is not reliably warm")
	}
	region, mem, tbl := benchRegion(32)
	dry := func() {
		if _, err := DryStitch(region, mem, tbl, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	dry() // grow every pooled buffer to its steady state
	if n := testing.AllocsPerRun(50, dry); n != 0 {
		t.Errorf("warm emission allocates %.1f objects per stitch, want 0", n)
	}
}

// BenchmarkStitch times a full stitch of the 32-iteration loop region
// (emission + segment materialization).
func BenchmarkStitch(b *testing.B) {
	region, mem, tbl := benchRegion(32)
	parent := &vm.Segment{Name: "f", Code: make([]vm.Inst, 20), Region: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Stitch(region, mem, tbl, parent, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDryStitch isolates emission (no segment built); warm, this is
// the allocation-free loop TestStitchWarmZeroAllocs pins.
func BenchmarkDryStitch(b *testing.B) {
	region, mem, tbl := benchRegion(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DryStitch(region, mem, tbl, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
