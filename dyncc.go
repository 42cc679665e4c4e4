// Package dyncc is a dynamic-compilation system for MiniC, a C subset,
// reproducing Auslander, Philipose, Chambers, Eggers and Bershad,
// "Fast, Effective Dynamic Compilation" (PLDI 1996).
//
// Programs annotate dynamic regions and run-time-constant variables:
//
//	int cacheLookup(int addr, int cache) {
//	    dynamicRegion (cache) {
//	        ...
//	        unrolled for (set = 0; set < assoc; set++) { ... }
//	    }
//	}
//
// The static compiler identifies derived run-time constants with a pair of
// interleaved dataflow analyses (run-time constants + reachability
// conditions), splits each region into set-up code and machine-code
// templates with holes, and optimizes everything in the context of the
// enclosing procedure. At run time a tiny dynamic compiler (the stitcher)
// copies the templates, patches the holes from the run-time constants
// table, resolves constant branches, completely unrolls annotated loops,
// and peephole-optimizes with the actual constant values.
//
// Execution happens on a built-in virtual RISC machine with an Alpha-like
// cycle cost model, so speedups and breakeven points can be measured
// exactly (see EXPERIMENTS.md).
package dyncc

import (
	"io"
	"time"

	"dyncc/internal/core"
	"dyncc/internal/ir"
	"dyncc/internal/rtr"
	"dyncc/internal/segio"
	"dyncc/internal/stitcher"
	"dyncc/internal/tmpl"
	"dyncc/internal/vm"
)

// Config controls compilation.
type Config struct {
	// Dynamic enables dynamic compilation of annotated regions; when
	// false the same source is compiled fully statically (the baseline),
	// with regions instrumented for cycle accounting.
	Dynamic bool
	// Optimize runs the static global optimizer.
	Optimize bool
	// NoStrengthReduction disables the stitcher's value-based peephole
	// rewrites (ablation).
	NoStrengthReduction bool
	// NoFuse disables superinstruction fusion (stitch-time and static;
	// ablation). Fusion is host-side only: modeled guest cycles,
	// instruction counts and all results are identical either way.
	NoFuse bool
	// RegisterActions enables the paper's section 5 extension: the
	// stitcher promotes constant-offset stack words to reserved registers.
	RegisterActions bool
	// MergedStitch enables the paper's section 7 one-pass mode: set-up is
	// evaluated host-side during stitching, cutting dynamic-compile
	// overhead (the paper predicted this would "drastically reduce"
	// dynamic compilation costs).
	MergedStitch bool
	// AutoRegion enables profile-guided automatic region promotion:
	// eligible *unannotated* functions are rewritten into keyed dynamic
	// regions that the runtime profiles, stitching only once their key
	// operands prove hot and stable, with guard instructions in the
	// stitched code that deoptimize back to unspecialized execution when a
	// speculated operand changes. Annotated regions are unaffected.
	// Requires Dynamic; see DESIGN.md "Speculative promotion".
	AutoRegion bool
	// AutoPromoteThreshold is the invocation count before an automatic
	// region may promote (0 = default 8). Set it above the workload's call
	// count for a never-promoting baseline.
	AutoPromoteThreshold uint64
	// AutoStabilityWindow is how many consecutive identical key tuples the
	// profiler must observe before promoting (0 = default 4).
	AutoStabilityWindow int
	// AutoBackoffFactor multiplies the promotion threshold after each
	// deoptimization — hysteresis against promote/deopt livelock on
	// phase-changing operands (0 = default 4; capped at 2^20).
	AutoBackoffFactor uint64
	// Cache tunes the runtime's two-level stitch cache.
	Cache CacheOptions
	// InlineBudget caps the callee size (IR instructions) the demand-driven
	// inlining pass will graft through a call boundary: 0 selects the
	// default (32), negative disables inlining (equivalent to
	// `-disable-pass inline`). The pass inlines always inside dynamic
	// regions and their set-up slices, and elsewhere only when an argument
	// is provably constant; it only runs when Optimize is set. See
	// DESIGN.md "Demand-driven inlining".
	InlineBudget int
	// DisablePasses names compiler pipeline passes to skip, for ablation
	// and debugging: the "inline" pass, any optimizer sub-pass
	// ("const-fold", "simplify", "branch-fold", "copy-prop", "cse", "dce")
	// or the whole "optimize" group. Structural passes cannot be disabled;
	// unknown names are a compile error.
	DisablePasses []string
	// DumpIR, when non-nil, receives a textual IR snapshot of every
	// function after each module-mutating compiler pass (optimizer
	// sub-passes dump only on fixpoint rounds where they changed
	// something).
	DumpIR func(pass, fn, text string)
	// CompileWorkers sizes CompileBatch's worker pool (0 = GOMAXPROCS).
	// Ignored by Compile.
	CompileWorkers int
	// CollectErrors switches CompileBatch from first-error-wins semantics
	// to per-source error collection (BatchResult.Errs). Ignored by
	// Compile.
	CollectErrors bool
}

// CacheOptions tune the runtime stitch cache (see DESIGN.md, "Runtime
// concurrency model" and "Cache lifecycle"). The zero value is the
// historical configuration: cross-machine sharing on, 32 shards, no
// diagnostic retention, and — for compatibility — unbounded retention at
// both cache levels. Servers with high-cardinality keys (user ids, query
// shapes) should set MaxEntries and MachineMaxEntries: without caps every
// distinct key is retained forever. Store takes any CacheStore (see
// OpenDirStore and DESIGN.md "Persistent cache tier").
type CacheOptions = rtr.CacheOptions

// CacheStore is the pluggable persistent-cache interface: a
// content-addressed blob store keyed by digest. Get returns (nil, nil) on
// a miss; Put must be atomic (concurrent readers see the old blob, the
// new blob, or a miss — never a torn write); Delete is a no-op on absent
// digests. Implementations must be safe for concurrent use.
type CacheStore = segio.Store

// DirStore is the on-disk CacheStore: one file per digest under a root
// directory, written atomically (temp file + rename).
type DirStore = segio.DirStore

// MemStore is an in-memory CacheStore for tests and single-process use.
type MemStore = segio.MemStore

// OpenDirStore opens (creating if needed) an on-disk persistent cache
// rooted at path.
func OpenDirStore(path string) (*DirStore, error) { return segio.OpenDir(path) }

// NewMemStore returns an empty in-memory CacheStore.
func NewMemStore() *MemStore { return segio.NewMemStore() }

// Program is a compiled MiniC program.
type Program struct {
	c *core.Compiled
}

// coreConfig lowers the public configuration to the internal one.
func (cfg Config) coreConfig() core.Config {
	return core.Config{
		Dynamic:        cfg.Dynamic,
		Optimize:       cfg.Optimize,
		MergedStitch:   cfg.MergedStitch,
		AutoRegion:     cfg.AutoRegion,
		InlineBudget:   cfg.InlineBudget,
		DisablePasses:  cfg.DisablePasses,
		DumpIR:         cfg.DumpIR,
		CompileWorkers: cfg.CompileWorkers,
		CollectErrors:  cfg.CollectErrors,
		Auto: rtr.AutoOptions{
			PromoteThreshold: cfg.AutoPromoteThreshold,
			StabilityWindow:  cfg.AutoStabilityWindow,
			BackoffFactor:    cfg.AutoBackoffFactor,
		},
		Stitcher: stitcher.Options{
			NoStrengthReduction: cfg.NoStrengthReduction,
			NoFuse:              cfg.NoFuse,
			RegisterActions:     cfg.RegisterActions,
		},
		Cache: cfg.Cache,
	}
}

// Compile compiles MiniC source with the given configuration.
func Compile(src string, cfg Config) (*Program, error) {
	c, err := core.Compile(src, cfg.coreConfig())
	if err != nil {
		return nil, err
	}
	return &Program{c: c}, nil
}

// BatchStats summarizes one CompileBatch run: how many sources compiled
// (and failed), the worker-pool size, batch wall clock and throughput, and
// the pipeline's per-pass stats merged across every program and worker (so
// a batch profiles exactly like one compile, scaled).
type BatchStats struct {
	Programs       int
	Failed         int
	Workers        int
	Elapsed        time.Duration
	ProgramsPerSec float64
	PassTotals     []PassStat
}

// BatchResult is a deterministic batch compilation result: slot i always
// corresponds to source i, regardless of worker scheduling.
type BatchResult struct {
	// Programs is index-aligned with the sources; a slot is nil exactly
	// when that source failed.
	Programs []*Program
	// Errs is index-aligned with the sources and populated only in
	// Config.CollectErrors mode; a slot is nil exactly when that source
	// compiled.
	Errs  []error
	Stats BatchStats
}

// CompileBatch compiles many MiniC sources concurrently on a bounded pool
// of Config.CompileWorkers goroutines (0 = GOMAXPROCS), one independent
// pass pipeline per program over the shared immutable front-end tables.
// Every program is byte-identical to a serial Compile of the same source.
// By default the lowest-indexed failing source aborts the batch
// (first-error-wins, deterministic even when a later source fails first in
// wall-clock time); with Config.CollectErrors the batch always returns and
// reports every failure in BatchResult.Errs.
func CompileBatch(srcs []string, cfg Config) (*BatchResult, error) {
	br, err := core.CompileBatch(srcs, cfg.coreConfig())
	if err != nil {
		return nil, err
	}
	out := &BatchResult{
		Programs: make([]*Program, len(br.Programs)),
		Stats: BatchStats{
			Programs:       br.Stats.Programs,
			Failed:         br.Stats.Failed,
			Workers:        br.Stats.Workers,
			Elapsed:        br.Stats.Elapsed,
			ProgramsPerSec: br.Stats.ProgramsPerSec,
		},
	}
	for i, c := range br.Programs {
		if c != nil {
			out.Programs[i] = &Program{c: c}
		}
	}
	if br.Errs != nil {
		out.Errs = append([]error(nil), br.Errs...)
	}
	for _, st := range br.Stats.PassTotals {
		out.Stats.PassTotals = append(out.Stats.PassTotals, PassStat{
			Name:     st.Pass,
			Duration: st.Duration,
			Runs:     st.Runs,
			Changes:  st.Changes,
		})
	}
	return out, nil
}

// CompileDynamic compiles with dynamic regions and optimization enabled.
func CompileDynamic(src string) (*Program, error) {
	return Compile(src, Config{Dynamic: true, Optimize: true})
}

// CompileStatic compiles the same source fully statically (the baseline).
func CompileStatic(src string) (*Program, error) {
	return Compile(src, Config{Dynamic: false, Optimize: true})
}

// Machine is an execution instance of a compiled program.
type Machine struct {
	m *vm.Machine
	p *Program
}

// NewMachine creates a fresh machine. memWords <= 0 selects the default
// memory size (4M words).
func (p *Program) NewMachine(memWords int) *Machine {
	return &Machine{m: p.c.NewMachine(memWords), p: p}
}

// SetOutput directs the program's print builtins to w.
func (ma *Machine) SetOutput(w io.Writer) { ma.m.Output = w }

// Call invokes a MiniC function with integer/pointer arguments and returns
// its result.
func (ma *Machine) Call(name string, args ...int64) (int64, error) {
	return ma.m.Call(name, args...)
}

// CallF invokes a MiniC function with float arguments.
func (ma *Machine) CallF(name string, args ...float64) (float64, error) {
	return ma.m.CallF(name, args...)
}

// Alloc reserves n zeroed words of VM heap (for harness-built inputs).
func (ma *Machine) Alloc(n int64) (int64, error) { return ma.m.Alloc(n) }

// Mem exposes the machine's word memory.
func (ma *Machine) Mem() []int64 { return ma.m.Mem }

// Cycles returns total executed cycles.
func (ma *Machine) Cycles() uint64 { return ma.m.Cycles }

// Insts returns total executed guest instructions (fused superinstructions
// count as the instructions they replaced).
func (ma *Machine) Insts() uint64 { return ma.m.Insts }

// ResetCounters clears cycle counters and region statistics.
func (ma *Machine) ResetCounters() { ma.m.ResetCounters() }

// RegionStats are the per-region counters (paper Table 2 raw material).
type RegionStats struct {
	Invocations   uint64
	ExecCycles    uint64 // cycles executing region code (stitched or static)
	SetupCycles   uint64 // set-up code cycles (dynamic-compile overhead)
	StitchCycles  uint64 // modeled stitcher cycles
	StitchedInsts uint64
	Compiles      uint64
}

// Overhead is the total dynamic compilation overhead in cycles.
func (rs RegionStats) Overhead() uint64 { return rs.SetupCycles + rs.StitchCycles }

// Region returns the counters for global region index r.
func (ma *Machine) Region(r int) RegionStats {
	rc := ma.m.Region(r)
	return RegionStats{
		Invocations:   rc.Invocations,
		ExecCycles:    rc.ExecCycles,
		SetupCycles:   rc.SetupCycles,
		StitchCycles:  rc.StitchCycles,
		StitchedInsts: rc.StitchedInsts,
		Compiles:      rc.Compiles,
	}
}

// StitchStats summarizes what the stitcher did for one region across all
// machines of this program (paper Table 3 raw material).
type StitchStats struct {
	InstsStitched      int
	HolesPatched       int
	BranchesResolved   int
	LoopIterations     int
	StrengthReductions int
	LargeConsts        int
	LoadsPromoted      int
	StoresPromoted     int
}

// StitchStats returns runtime stitcher statistics for region r.
func (p *Program) StitchStats(r int) StitchStats {
	s := p.c.Runtime.Stats(r)
	return StitchStats{
		InstsStitched:      s.InstsStitched,
		HolesPatched:       s.HolesPatched,
		BranchesResolved:   s.BranchesResolved,
		LoopIterations:     s.LoopIterations,
		StrengthReductions: s.StrengthReductions,
		LargeConsts:        s.LargeConsts,
		LoadsPromoted:      s.LoadsPromoted,
		StoresPromoted:     s.StoresPromoted,
	}
}

// PassStat is one row of the static compiler's pipeline report: how long
// a pass ran (wall clock, summed over executions), how many times it ran
// (optimizer sub-passes run once per fixpoint round), and how many IR
// changes it made. The synthetic "verify" row accumulates the ir.Verify
// runs the pipeline interposes after every module-mutating pass.
type PassStat struct {
	Name     string
	Duration time.Duration
	Runs     int
	Changes  int
}

// CompileStats reports the compiler pipeline's per-pass timings and
// change counts in execution order: parse, lower, ssa, the optimizer
// sub-passes (const-fold, simplify, branch-fold, copy-prop, cse, dce),
// the optimize group total, split, codegen, and verify. Disabled passes
// are absent.
func (p *Program) CompileStats() []PassStat {
	stats := make([]PassStat, len(p.c.Stats))
	for i, st := range p.c.Stats {
		stats[i] = PassStat{
			Name:     st.Pass,
			Duration: st.Duration,
			Runs:     st.Runs,
			Changes:  st.Changes,
		}
	}
	return stats
}

// RuntimeCacheStats summarizes the stitch-cache lifecycle across every
// machine of a program: stitch counts, lookup outcomes, eviction churn and
// resident footprint, plus the tiered-execution, store and promotion
// counters (see rtr.CacheStats for each field). All counters are
// monotonic except the Resident gauges, and lookups obey
//
//	Lookups == SharedHits + Waits + FailedHits + Misses
//
// PromoteQuantile bounds a quantile of the background publish latency.
type RuntimeCacheStats struct {
	rtr.CacheStats
	// StencilStitches is always 0. The copy-and-patch stencil emission
	// path it counted was removed, and every stitch now runs the one
	// interpretive stitcher. The field stays so existing readers of
	// RuntimeCacheStats keep compiling.
	StencilStitches uint64
}

// CacheStats reports shared stitch-cache behaviour for this program.
func (p *Program) CacheStats() RuntimeCacheStats {
	return RuntimeCacheStats{CacheStats: p.c.Runtime.CacheStats()}
}

// WaitIdle blocks until every scheduled background stitch has been
// published or discarded and every queued store publish has drained. A
// no-op unless AsyncStitch or Cache.Store is set.
func (p *Program) WaitIdle() { p.c.Runtime.WaitIdle() }

// Close stops the background stitch workers, failing any still-queued
// stitches (their keys re-schedule if called again — machines keep
// working), and drains then stops the persistent-store publisher, so
// every stitch published before Close is durably in the store. Idempotent;
// a no-op unless AsyncStitch or Cache.Store is set.
func (p *Program) Close() { p.c.Runtime.Close() }

// RegionCacheChurn is one row of the per-region churn histogram (enable
// with CacheOptions.ChurnStats): how many stitches, capacity evictions and
// post-eviction re-stitches a region has seen. Rising Evictions plus
// Restitches means the region's specialization working set exceeds the
// configured caps.
type RegionCacheChurn = rtr.RegionChurn

// CacheChurn returns the per-region churn histogram, or nil unless
// Config.Cache.ChurnStats was set.
func (p *Program) CacheChurn() []RegionCacheChurn { return p.c.Runtime.Churn() }

// Invalidate flushes every cached specialization of region r, across the
// shared cache and every machine's private cache (detected by a
// generation check on the machine's next entry into the region). Use it
// when data a region specialized on has changed.
func (p *Program) Invalidate(r int) { p.c.Runtime.Invalidate(r) }

// InvalidateKey flushes one specialization of region r, identified by the
// values its key variables had when it was stitched. Machines drop their
// private copies of the region's specializations, but only the
// invalidated key pays a re-stitch — the rest re-adopt from the shared
// cache.
func (p *Program) InvalidateKey(r int, keyVals ...int64) {
	p.c.Runtime.InvalidateKey(r, keyVals...)
}

// PlanStats reports the optimizations the static compiler planned for
// region r (constant folding, load elimination, branch elimination,
// complete unrolling — paper Table 3).
type PlanStats struct {
	ConstOpsFolded  int
	LoadsEliminated int
	ConstBranches   int
	LoopsUnrolled   int
	Holes           int
}

// PlanStats returns the splitter's plan for global region index r.
func (p *Program) PlanStats(r int) PlanStats {
	t := p.c.Output.Regions[r]
	return PlanStats{
		ConstOpsFolded:  t.Stats.ConstOpsFolded,
		LoadsEliminated: t.Stats.LoadsEliminated,
		ConstBranches:   t.Stats.ConstBranches,
		LoopsUnrolled:   t.Stats.LoopsUnrolled,
		Holes:           t.Stats.Holes,
	}
}

// NumRegions returns the number of dynamic regions in the program.
func (p *Program) NumRegions() int { return len(p.c.Output.Regions) }

// RegionTemplates exposes the template metadata for region r (for dumps
// and the Figure 1 walk-through).
func (p *Program) RegionTemplates(r int) *tmpl.Region { return p.c.Output.Regions[r] }

// IR returns the compiled IR of a function (diagnostics/dumps).
func (p *Program) IR(fn string) *ir.Func { return p.c.Module.FuncIndex[fn] }

// Module exposes the compiled IR module (diagnostics and differential
// testing against the reference interpreter).
func (p *Program) Module() *ir.Module { return p.c.Module }

// Disasm disassembles a compiled function.
func (p *Program) Disasm(fn string) string {
	id := p.c.Output.Prog.FuncID(fn)
	if id < 0 {
		return ""
	}
	return p.c.Output.Prog.Segs[id].Disasm()
}
