package main

import (
	"reflect"

	"dyncc"
)

// counts are the program's own counters summed over the programs and
// machines of a workload. With one client goroutine and synchronous
// stitching every one of them is a deterministic function of the seed, so
// two same-seed repetitions must agree on them exactly.
type counts struct {
	Cycles, Insts                         uint64 // Machine.Cycles / Insts
	ExecCycles, SetupCycles, StitchCycles uint64 // Machine.Region
	Compiles                              uint64
	Lookups, SharedHits, Stitches         uint64 // Program.CacheStats
	Restitches, Evictions, L2Evictions    uint64
	StencilStitches, Promotions, Deopts   uint64
	StoreHits, StoreMisses, StorePuts     uint64
	StoreErrors                           uint64
	InstsStitched, HolesPatched           uint64 // Program.StitchStats
	BranchesResolved, StrengthReductions  uint64
}

// addProgram adds a program's cache and stitcher counters.
func (c *counts) addProgram(p *dyncc.Program) {
	cs := p.CacheStats()
	c.Lookups += cs.Lookups
	c.SharedHits += cs.SharedHits
	c.Stitches += cs.Stitches
	c.Restitches += cs.Restitches
	c.Evictions += cs.Evictions
	c.L2Evictions += cs.L2Evictions
	c.StencilStitches += cs.StencilStitches
	c.Promotions += cs.Promotions
	c.Deopts += cs.Deopts
	c.StoreHits += cs.StoreHits
	c.StoreMisses += cs.StoreMisses
	c.StorePuts += cs.StorePuts
	c.StoreErrors += cs.StoreErrors
	for r := 0; r < p.NumRegions(); r++ {
		ss := p.StitchStats(r)
		c.InstsStitched += uint64(ss.InstsStitched)
		c.HolesPatched += uint64(ss.HolesPatched)
		c.BranchesResolved += uint64(ss.BranchesResolved)
		c.StrengthReductions += uint64(ss.StrengthReductions)
	}
}

// addMachine adds a machine's cycle, instruction and region counters.
func (c *counts) addMachine(m *dyncc.Machine, regions int) {
	c.Cycles += m.Cycles()
	c.Insts += m.Insts()
	for r := 0; r < regions; r++ {
		rs := m.Region(r)
		c.ExecCycles += rs.ExecCycles
		c.SetupCycles += rs.SetupCycles
		c.StitchCycles += rs.StitchCycles
		c.Compiles += rs.Compiles
	}
}

// sub returns c - o, field by field.
func (c counts) sub(o counts) counts {
	cv, ov := reflect.ValueOf(&c).Elem(), reflect.ValueOf(o)
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetUint(cv.Field(i).Uint() - ov.Field(i).Uint())
	}
	return c
}
