package core

import (
	"dyncc/internal/codegen"
	"dyncc/internal/ir"
	"dyncc/internal/lower"
	"dyncc/internal/opt"
	"dyncc/internal/parser"
	"dyncc/internal/pipeline"
	"dyncc/internal/split"
)

// The static compiler's passes. Each is a thin pipeline.Pass adapter over
// the corresponding package entry point; core.Compile registers them in
// order and the pass manager handles timing, verification interposition
// and IR dumping (see internal/pipeline).

type passParse struct{}

func (passParse) Name() string { return "parse" }

func (passParse) Run(ctx *pipeline.Context) error {
	file, err := parser.Parse(ctx.Src)
	if err != nil {
		return err
	}
	ctx.File = file
	return nil
}

type passLower struct{}

func (passLower) Name() string    { return "lower" }
func (passLower) MutatesIR() bool { return true }

func (passLower) Run(ctx *pipeline.Context) error {
	mod, err := lower.Lower(ctx.File)
	if err != nil {
		return err
	}
	ctx.Module = mod
	return nil
}

type passSSA struct{}

func (passSSA) Name() string    { return "ssa" }
func (passSSA) MutatesIR() bool { return true }

func (passSSA) Run(ctx *pipeline.Context) error {
	for _, f := range ctx.Module.Funcs {
		ir.BuildSSA(f)
	}
	return nil
}

// passOptSub adapts one optimizer sub-pass (const-fold, simplify,
// branch-fold, copy-prop, cse, dce) to the pipeline; the sub-passes are
// registered as a fixpoint group so together they iterate exactly like
// the old monolithic opt.Optimize, while each can be disabled, timed and
// dumped on its own.
type passOptSub struct{ sp opt.SubPass }

func (p passOptSub) Name() string    { return p.sp.Name }
func (p passOptSub) MutatesIR() bool { return true }

func (p passOptSub) Run(ctx *pipeline.Context) error {
	n := 0
	for _, f := range ctx.Module.Funcs {
		n += p.sp.Run(f)
	}
	ctx.NoteChanges(n)
	return nil
}

// optPasses returns the optimizer sub-passes wrapped for the pipeline.
func optPasses() []pipeline.Pass {
	subs := opt.SubPasses()
	ps := make([]pipeline.Pass, len(subs))
	for i, sp := range subs {
		ps[i] = passOptSub{sp}
	}
	return ps
}

// passSplit walks every function's regions exactly once, assigning the
// global region index and (when compiling dynamically) running the
// region splitter. All later consumers — codegen, merged-stitch and
// async-stitch wiring, Compiled.Regions — index the resulting walk
// instead of re-deriving it.
type passSplit struct{}

func (passSplit) Name() string    { return "split" }
func (passSplit) MutatesIR() bool { return true }

func (passSplit) Run(ctx *pipeline.Context) error {
	ctx.Splits = map[*ir.Region]*split.Result{}
	idx := 0
	for _, f := range ctx.Module.Funcs {
		for _, r := range f.Regions {
			ri := pipeline.RegionInfo{Fn: f, Region: r, Index: idx}
			if ctx.Dynamic {
				sr, err := split.Split(f, r)
				if err != nil {
					return err
				}
				ctx.Splits[r] = sr
				ri.Split = sr
			}
			ctx.Regions = append(ctx.Regions, ri)
			idx++
		}
	}
	return nil
}

type passCodegen struct{ noFuse bool }

func (passCodegen) Name() string { return "codegen" }

func (p passCodegen) Run(ctx *pipeline.Context) error {
	out, err := codegen.Compile(ctx.Module, ctx.Splits, codegen.Options{
		NoFuse: p.noFuse,
	})
	if err != nil {
		return err
	}
	ctx.Output = out
	return nil
}
