// Package core is the end-to-end compiler driver: it parses MiniC, lowers
// to IR, builds SSA, optimizes, runs the paper's region analyses and
// splitter, generates VM code and templates, and wires the run-time
// stitcher. It is the paper's whole system glued together.
package core

import (
	"fmt"
	"math"
	"os"
	"slices"

	"dyncc/internal/codegen"
	"dyncc/internal/ir"
	"dyncc/internal/opt"
	"dyncc/internal/pipeline"
	"dyncc/internal/regalloc"
	"dyncc/internal/rtr"
	"dyncc/internal/split"
	"dyncc/internal/stitcher"
	"dyncc/internal/vm"
)

// Config selects compilation behaviour.
type Config struct {
	// Dynamic enables dynamic compilation of annotated regions. When
	// false, regions are compiled statically (annotations only drive
	// instrumentation), which is the paper's baseline.
	Dynamic bool
	// Optimize runs the static optimizer (on by default via DefaultConfig).
	Optimize bool
	// Stitcher options (strength-reduction ablation, register actions).
	Stitcher stitcher.Options
	// Cache tunes the runtime's two-level stitch cache (shard count,
	// cross-machine sharing, diagnostic segment retention).
	Cache rtr.CacheOptions
	// MergedStitch enables the paper's section 7 one-pass mode: set-up is
	// evaluated host-side during stitching instead of running as inline VM
	// code, eliminating the intermediate directive/set-up interpretation
	// cost ("merging these components into a single pass should
	// drastically reduce our dynamic compilation costs").
	MergedStitch bool
	// AutoRegion enables profile-guided automatic region promotion: the
	// `autoregion` pass rewrites eligible *unannotated* functions into
	// keyed dynamic regions marked Auto, and the runtime profiles each one,
	// stitching only once its key operands prove hot and stable — with
	// GUARD instructions in the stitched code that deoptimize back to the
	// generic tier when a speculated operand changes. See
	// DESIGN.md "Speculative promotion". Requires Dynamic.
	AutoRegion bool
	// Auto tunes the runtime's promotion policy (thresholds, stability
	// window, deopt backoff); the zero value selects rtr's defaults.
	Auto rtr.AutoOptions
	// InlineBudget caps the callee size (IR instructions) the demand-driven
	// inlining pass will graft into a caller: 0 selects the default
	// (DefaultInlineBudget), negative disables inlining entirely (like
	// `-disable-pass inline`). The pass only runs when Optimize is set.
	InlineBudget int
	// DisablePasses names pipeline passes to skip, for ablation and
	// debugging (e.g. "dce", "cse", "inline", or the whole "optimize"
	// group). Structural passes (parse, lower, ssa, split, codegen) cannot
	// be disabled, and unknown names are a compile error.
	DisablePasses []string
	// DumpIR, when non-nil, receives a textual IR snapshot of every
	// function after each module-mutating pass (optimizer sub-passes dump
	// only on fixpoint rounds where they changed something).
	DumpIR func(pass, fn, text string)
	// VerifyAll forces ir.Verify after every pass, not only the
	// module-mutating ones. Also enabled process-wide by setting the
	// DYNCC_VERIFY_ALL environment variable (`make check-passes` runs the
	// whole suite that way).
	VerifyAll bool
	// CompileWorkers sizes CompileBatch's goroutine pool (0 = GOMAXPROCS).
	// Ignored by Compile.
	CompileWorkers int
	// CollectErrors switches CompileBatch from first-error-wins (the
	// lowest-indexed failure aborts the batch) to per-source error
	// collection in BatchResult.Errs. Ignored by Compile.
	CollectErrors bool
}

// DefaultConfig compiles dynamically with full optimization.
func DefaultConfig() Config {
	return Config{Dynamic: true, Optimize: true}
}

// Compiled is a fully compiled program.
type Compiled struct {
	Config  Config
	Module  *ir.Module
	Output  *codegen.Output
	Splits  map[*ir.Region]*split.Result
	Runtime *rtr.Runtime
	// Stats are the pipeline's per-pass wall-clock timings and change
	// counts, in execution order (optimizer sub-passes have their own
	// rows; "verify" accumulates the interposed verification runs).
	Stats []pipeline.PassStat

	regions []pipeline.RegionInfo
}

// inlineEnabled reports whether the inline pass will actually graft under
// cfg — the autoregion candidate oracle keys off this so its promotion
// decisions predict exactly what the later pass will do.
func inlineEnabled(cfg Config) bool {
	if !cfg.Optimize || effectiveInlineBudget(cfg.InlineBudget) < 0 {
		return false
	}
	for _, p := range cfg.DisablePasses {
		if p == "inline" || p == "optimize" {
			return false
		}
	}
	return true
}

// verifyAllEnv reports whether ir.Verify is forced between all passes
// process-wide; `make check-passes` runs the whole test suite with it
// set. Read per compile, not at package init: `go test` only records
// environment reads made during the test run, so an init-time read would
// let cached test results mask a check-passes run.
func verifyAllEnv() bool { return os.Getenv("DYNCC_VERIFY_ALL") != "" }

// newPipeline registers the static compiler's passes for cfg: the front
// end, then split and codegen.
func newPipeline(cfg Config) *pipeline.Manager {
	mgr := newFrontEnd(cfg)
	mgr.Register(passSplit{})
	// Static-code fusion rides the optimizer switch; the stitcher's NoFuse
	// ablation turns it off everywhere at once so fused-vs-unfused
	// differential runs compare whole configurations.
	mgr.Register(passCodegen{noFuse: cfg.Stitcher.NoFuse || !cfg.Optimize})
	return mgr
}

// newFrontEnd registers the passes that produce the SSA module split
// analyzes: parse through the optimizer. The optimizer's sub-passes form a
// fixpoint group — iterated in order until a round changes nothing, each
// independently disableable.
func newFrontEnd(cfg Config) *pipeline.Manager {
	mgr := pipeline.New()
	mgr.Register(passParse{})
	// Automatic region promotion rewrites the AST before lowering; optional
	// so `-disable-pass autoregion` ablates speculation while keeping the
	// rest of a Config.AutoRegion build identical.
	inlBudget := -1
	if inlineEnabled(cfg) {
		inlBudget = effectiveInlineBudget(cfg.InlineBudget)
	}
	mgr.RegisterOptional(passAutoRegion{
		enabled:      cfg.AutoRegion && cfg.Dynamic,
		inlineBudget: inlBudget,
	})
	mgr.Register(passLower{})
	mgr.Register(passSSA{})
	// Demand-driven inlining sits between SSA construction and the
	// optimizer, so the fixpoint group folds, propagates and dedups the
	// grafted bodies exactly like hand-merged code. Optional: `-disable-pass
	// inline` is the specialization-through-calls ablation. Inert without
	// the optimizer — the unoptimized build (the differential reference)
	// must keep every call boundary intact.
	mgr.RegisterOptional(passInline{
		enabled: inlBudget >= 0,
		budget:  inlBudget,
	})
	if cfg.Optimize {
		mgr.RegisterFixpoint("optimize", opt.MaxRounds, optPasses()...)
	}
	return mgr
}

// Compile compiles MiniC source text by running the pass pipeline:
// parse → lower → ssa → optimize (fixpoint of const-fold, simplify,
// branch-fold, copy-prop, cse, dce) → split → codegen, with ir.Verify
// interposed after every module-mutating pass.
func Compile(src string, cfg Config) (*Compiled, error) {
	return compile(src, cfg, new(ir.Scratch))
}

// compile is Compile with the dense-table scratch supplied by the caller,
// so a CompileBatch worker reuses one across its programs.
func compile(src string, cfg Config, s *ir.Scratch) (*Compiled, error) {
	mgr := newPipeline(cfg)
	if err := mgr.Disable(cfg.DisablePasses); err != nil {
		return nil, err
	}
	ctx := &pipeline.Context{
		Src:       src,
		Scratch:   s,
		Dynamic:   cfg.Dynamic,
		VerifyAll: cfg.VerifyAll || verifyAllEnv(),
		DumpIR:    cfg.DumpIR,
	}
	if err := mgr.Run(ctx); err != nil {
		return nil, err
	}
	mod, out := ctx.Module, ctx.Output

	c := &Compiled{
		Config:  cfg,
		Module:  mod,
		Output:  out,
		Splits:  ctx.Splits,
		Stats:   mgr.Stats(),
		regions: ctx.Regions,
	}
	c.Runtime = rtr.New(out.Prog, out.Regions, rtr.Options{
		Stitcher: cfg.Stitcher,
		Cache:    cfg.Cache,
		Auto:     cfg.Auto,
	})
	if cfg.Dynamic && cfg.MergedStitch {
		for _, ri := range ctx.Regions {
			if ri.Split != nil {
				c.Runtime.SetupFn[ri.Index] =
					makeSetupFn(mod, ri.Fn, ri.Split, out.FuncAlloc[ri.Fn.Name], s)
			}
		}
	}
	if cfg.Dynamic && (cfg.Cache.AsyncStitch || cfg.AutoRegion) {
		// Background stitching needs to rebuild a region's table from the
		// key bytes alone, with no machine. That is exactly the Shareable
		// proof (codegen/share.go): set-up consumes nothing but key values
		// and machine-independent constants. Install a key-driven set-up
		// evaluator for every keyed shareable region; regions without one
		// keep stitching inline. AutoRegion builds install them too so the
		// promotion machinery's generic tier and any future background
		// stitches of promoted regions have the same key-only path.
		for _, ri := range ctx.Regions {
			if ri.Split != nil && ri.Index < len(out.Regions) &&
				out.Regions[ri.Index].Shareable && len(ri.Region.Keys) > 0 {
				if fn := makeKeySetupFn(mod, ri.Fn, ri.Region, ri.Split, s); fn != nil {
					c.Runtime.KeySetup[ri.Index] = fn
				}
			}
		}
	}
	return c, nil
}

// PassStat returns the stat row for the named pass (zero if the pass did
// not run).
func (c *Compiled) PassStat(name string) pipeline.PassStat {
	for _, st := range c.Stats {
		if st.Pass == name {
			return st
		}
	}
	return pipeline.PassStat{}
}

// mergedSetupCostPerStep is the modeled cycle cost of one set-up operation
// evaluated host-side in merged mode (cheaper than the two-pass scheme's
// VM set-up + table indirection, which is the point of section 7).
const mergedSetupCostPerStep = 2

// setupInputs returns the values region sr's set-up code reads but does
// not define, in first-use order over f's blocks. Both set-up evaluators
// bind exactly these values before interpreting the set-up subgraph.
func setupInputs(f *ir.Func, sr *split.Result, s *ir.Scratch) []ir.Value {
	defer s.Release(s.Mark())
	// defined holds the subgraph's own values and, as they are found, the
	// inputs already listed.
	defined := s.Bits(f.NumValues())
	for _, b := range f.Blocks {
		if !b.Setup || b.Region != sr.Region {
			continue
		}
		for _, in := range b.Instrs {
			if in.Dst != 0 {
				defined.Add(int(in.Dst))
			}
		}
	}
	var inputs []ir.Value
	for _, b := range f.Blocks {
		if !b.Setup || b.Region != sr.Region {
			continue
		}
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if !defined.Has(int(a)) {
					defined.Add(int(a))
					inputs = append(inputs, a)
				}
			}
		}
	}
	return inputs
}

// makeSetupFn builds the host-side set-up evaluator for one region: it
// reads the set-up subgraph's inputs out of the live machine (registers or
// spill slots), interprets the subgraph directly against machine memory,
// and returns the run-time constants table base.
func makeSetupFn(mod *ir.Module, f *ir.Func, sr *split.Result,
	alloc *regalloc.Allocation, s *ir.Scratch) func(m *vm.Machine) (int64, uint64, error) {

	inputs := setupInputs(f, sr, s)
	return func(m *vm.Machine) (int64, uint64, error) {
		env := &ir.InterpEnv{
			Mod:          mod,
			Mem:          m.Mem,
			Limit:        1 << 20,
			AllocFn:      m.Alloc,
			FrameBase:    m.Regs[vm.RSP],
			UseFrameBase: true,
		}
		init := map[ir.Value]int64{}
		for _, v := range inputs {
			loc := alloc.Loc[v]
			switch {
			case loc.Spilled:
				a := m.Regs[vm.RSP] + int64(loc.Slot)
				if a < 0 || a >= int64(len(m.Mem)) {
					return 0, 0, fmt.Errorf("merged set-up: spill slot out of bounds")
				}
				init[v] = m.Mem[a]
			case loc.Reg != 0:
				init[v] = m.Regs[loc.Reg]
			default:
				init[v] = 0
			}
		}
		tbl, err := env.RunSetup(f, sr.SetupEntry, init)
		return tbl, uint64(env.Steps) * mergedSetupCostPerStep, err
	}
}

// Arena sizing for key-driven set-up evaluation: the worker interprets
// set-up against a private memory image (globals area reserved, tables
// bump-allocated above it) and retries with a doubled arena if the
// region's table outgrows it.
const (
	minKeySetupArena = 1 << 13
	maxKeySetupArena = 1 << 24
)

// makeKeySetupFn builds the key-driven set-up evaluator the async stitch
// workers use: given only the region's key values, interpret the set-up
// subgraph in a private arena (the caller's recycled one when it is large
// enough, cleared first) and return (arena, table base). It returns
// nil when any set-up input is neither a key nor a compile-time-resolvable
// constant — which the Shareable proof rules out, so nil is purely
// defensive (the region then stitches inline, never incorrectly).
func makeKeySetupFn(mod *ir.Module, f *ir.Func, r *ir.Region,
	sr *split.Result, s *ir.Scratch) rtr.KeySetupFunc {

	inputs := setupInputs(f, sr, s)

	// Bind every input at build time: keys positionally, constants by
	// evaluating their defining instruction.
	type binding struct {
		v ir.Value
		c int64
	}
	var constBind []binding
	for _, v := range inputs {
		if slices.Contains(r.Keys, v) {
			continue
		}
		in := lastDef(f, v)
		if in == nil {
			return nil // a parameter that is not a key: not key-derivable
		}
		switch in.Op {
		case ir.OpConst:
			constBind = append(constBind, binding{v, in.Const})
		case ir.OpFConst:
			constBind = append(constBind, binding{v, int64(math.Float64bits(in.F))})
		case ir.OpGlobalAddr:
			g := mod.GlobalIndex[in.Sym]
			if g == nil {
				return nil
			}
			constBind = append(constBind, binding{v, int64(g.Addr)})
		default:
			return nil
		}
	}

	base := int64(mod.GlobalWords)
	return func(keyVals, arena []int64) ([]int64, int64, error) {
		if len(keyVals) != len(r.Keys) {
			return nil, 0, fmt.Errorf("key set-up: %d key values, want %d",
				len(keyVals), len(r.Keys))
		}
		size := int64(minKeySetupArena)
		for size < base+64 {
			size *= 2
		}
		for ; ; size *= 2 {
			var mem []int64
			if int64(cap(arena)) >= size {
				mem = arena[:size]
				clear(mem)
			} else {
				mem = make([]int64, size)
			}
			hp := base
			grew := false
			env := &ir.InterpEnv{
				Mod:          mod,
				Mem:          mem,
				Limit:        1 << 20,
				UseFrameBase: true, // set-up has no frame addresses (share proof)
				AllocFn: func(n int64) (int64, error) {
					if n < 0 {
						return 0, fmt.Errorf("key set-up: negative allocation")
					}
					a := hp
					hp += n
					if hp > int64(len(mem)) {
						grew = true
						return 0, fmt.Errorf("key set-up: arena exhausted")
					}
					return a, nil
				},
			}
			init := map[ir.Value]int64{}
			for i, k := range r.Keys {
				init[k] = keyVals[i]
			}
			for _, b := range constBind {
				init[b.v] = b.c
			}
			tbl, err := env.RunSetup(f, sr.SetupEntry, init)
			if err != nil {
				if grew && size < maxKeySetupArena {
					continue
				}
				return nil, 0, err
			}
			return mem, tbl, nil
		}
	}
}

// lastDef returns the last instruction of f, in block order, that defines
// v: after SSA destruction a value's DefOf may be stale.
func lastDef(f *ir.Func, v ir.Value) *ir.Instr {
	var def *ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Dst == v {
				def = in
			}
		}
	}
	return def
}

// NewMachine creates a VM with the runtime attached. memWords <= 0 picks
// the default size.
func (c *Compiled) NewMachine(memWords int) *vm.Machine {
	m := vm.NewMachine(c.Output.Prog, memWords)
	c.Runtime.Attach(m)
	return m
}

// NewMachines creates n machines sharing this program's runtime (and so its
// cross-machine stitch cache). Each machine may then be driven by its own
// goroutine.
func (c *Compiled) NewMachines(n int) []*vm.Machine {
	ms := make([]*vm.Machine, n)
	for i := range ms {
		ms[i] = c.NewMachine(0)
	}
	return ms
}

// Regions returns all IR regions in module order (matching global
// indices), from the walk the split pass computed once.
func (c *Compiled) Regions() []*ir.Region {
	rs := make([]*ir.Region, len(c.regions))
	for i, ri := range c.regions {
		rs[i] = ri.Region
	}
	return rs
}

// RegionInfos exposes the pipeline's single region walk: every region
// with its function, global index and split result.
func (c *Compiled) RegionInfos() []pipeline.RegionInfo { return c.regions }
