package core

import (
	"dyncc/internal/ir"
	"dyncc/internal/pipeline"
)

// PreSplitModule runs cfg's front end (parse through the optimizer) and
// returns the SSA module whose regions split.Split analyzes.
func PreSplitModule(src string, cfg Config) (*ir.Module, error) {
	mgr := newFrontEnd(cfg)
	if err := mgr.Disable(cfg.DisablePasses); err != nil {
		return nil, err
	}
	ctx := &pipeline.Context{Src: src, Dynamic: cfg.Dynamic}
	if err := mgr.Run(ctx); err != nil {
		return nil, err
	}
	return ctx.Module, nil
}
