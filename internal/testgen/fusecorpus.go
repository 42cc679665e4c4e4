package testgen

import (
	"fmt"

	"dyncc/internal/core"
	"dyncc/internal/rtr"
	"dyncc/internal/stitcher"
	"dyncc/internal/vm"
)

// FuseCase is one vm.Fuse input taken from the compiler's real output.
type FuseCase struct {
	Label string
	Code  []vm.Inst
	Opts  vm.FuseOptions
}

// FuseCorpus compiles the differential corpus for seeds [0, n) (even
// seeds plain, odd seeds call-bearing) with fusion disabled and returns
// the sequences fusion would have rewritten: every static function body
// with its attribution, leaders (branch and jump-table targets, region
// exits, deopt pcs) and region-entry pcs, and every segment stitched while
// the seed's calls ran, which have none of those.
func FuseCorpus(n int64) ([]FuseCase, error) {
	var out []FuseCase
	for seed := int64(0); seed < n; seed++ {
		cIn, xIn := sweepCase(seed)
		tc, err := buildCaseWith(seed, cIn, xIn, GenOpts{WithCalls: seed%2 == 1})
		if err != nil {
			return nil, err
		}
		p, err := core.Compile(tc.src, core.Config{Dynamic: true, Optimize: true,
			Stitcher: stitcher.Options{NoFuse: true},
			Cache:    rtr.CacheOptions{KeepStitched: true}})
		if err != nil {
			return nil, fmt.Errorf("seed %d compile: %w\n%s", seed, err, tc.src)
		}
		m := p.NewMachine(0)
		va, err := m.Alloc(tc.n)
		if err != nil {
			return nil, err
		}
		copy(m.Mem[va:va+tc.n], tc.contents)
		for _, x := range tc.xs {
			if _, err := m.Call("f", va, tc.n, tc.c, x); err != nil {
				return nil, fmt.Errorf("seed %d run: %w\n%s", seed, err, tc.src)
			}
		}
		for fid, seg := range p.Output.Prog.Segs {
			out = append(out, FuseCase{
				Label: fmt.Sprintf("seed %d %s", seed, seg.Name),
				Code:  seg.Code,
				Opts:  staticFuseOpts(p, fid, seg),
			})
		}
		for ri := range p.Output.Regions {
			for _, seg := range p.Runtime.Stitched[ri] {
				out = append(out, FuseCase{
					Label: fmt.Sprintf("seed %d %s", seed, seg.Name),
					Code:  seg.Code,
				})
			}
		}
		p.Runtime.Close()
	}
	return out, nil
}

// staticFuseOpts reconstructs the fusion options codegen would pass for a
// static function body from the unfused segment and its regions.
func staticFuseOpts(p *core.Compiled, fid int, seg *vm.Segment) vm.FuseOptions {
	opts := vm.FuseOptions{RegionOf: seg.RegionOf, SetupOf: seg.SetupOf}
	for _, in := range seg.Code {
		switch in.Op {
		case vm.BEQZ, vm.BNEZ, vm.BEQI, vm.BR, vm.CMPBR, vm.CMPBRI:
			opts.Leaders = append(opts.Leaders, in.Target)
		}
	}
	for _, tbl := range seg.JumpTables {
		opts.Leaders = append(opts.Leaders, tbl...)
	}
	for _, r := range p.Output.Regions {
		if r.FuncID != fid || r.Blocks == nil {
			continue
		}
		if r.Auto {
			opts.Leaders = append(opts.Leaders, r.DeoptPC)
		}
		for _, b := range r.Blocks {
			for _, e := range b.Term.Succs {
				if e.Block < 0 {
					opts.Leaders = append(opts.Leaders, e.ExitPC)
				}
			}
		}
	}
	for pc, r := range seg.RegionEntry {
		if r >= 0 {
			opts.EntryPCs = append(opts.EntryPCs, pc)
		}
	}
	return opts
}
