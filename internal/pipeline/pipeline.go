// Package pipeline is the static compiler's pass manager. The compiler
// used to be a hard-coded phase sequence inside core.Compile; here it is
// an explicit pipeline of named passes over a shared Context, with
//
//   - ir.Verify automatically interposed after every module-mutating pass
//     (and, with Context.VerifyAll, after every pass),
//   - per-pass wall-clock timings and change counts (CompileStats),
//   - optional IR snapshots after each mutating pass (Context.DumpIR),
//   - individually disableable optimization sub-passes for ablation
//     (Manager.Disable / core.Config.DisablePasses), and
//   - fixpoint groups: a set of sub-passes iterated in order until a full
//     round changes nothing (the optimizer's structure).
//
// The region-based-optimizer literature (Way & Pollock) and copy-and-patch
// systems both show that cheap extensibility comes from small, separately
// verifiable passes; this package is that seam.
package pipeline

import (
	"fmt"
	"time"

	"dyncc/internal/ast"
	"dyncc/internal/codegen"
	"dyncc/internal/ir"
	"dyncc/internal/split"
)

// Pass is one stage of the compiler. Run reads and writes the Context;
// a non-nil error aborts the pipeline.
type Pass interface {
	Name() string
	Run(*Context) error
}

// IRMutator is implemented by passes that mutate the IR module. The
// manager interposes ir.Verify (and the DumpIR hook) after every run of a
// mutating pass; non-mutating passes are verified only under VerifyAll.
type IRMutator interface {
	MutatesIR() bool
}

// RegionInfo is one dynamic region in module order. The pipeline computes
// this walk once (global region indices used to be re-derived by several
// loops in core.Compile) and every later consumer indexes it.
type RegionInfo struct {
	Fn     *ir.Func
	Region *ir.Region
	Index  int           // global region index (module order)
	Split  *split.Result // nil when compiling statically
}

// Context carries all compilation state between passes.
type Context struct {
	// Src is the MiniC source text (input to the parse pass).
	Src string

	// Knobs, copied from core.Config.
	Dynamic   bool
	VerifyAll bool // run ir.Verify after every pass, not just mutating ones
	// DumpIR, when non-nil, receives a textual IR snapshot of every
	// function after each module-mutating pass run (fixpoint sub-passes
	// dump only on rounds where they changed something).
	DumpIR func(pass, fn, text string)

	// Scratch backs the dense per-function tables passes build (see
	// ir.Scratch). It belongs to this compile alone: nothing taken from it
	// may reach Output. Nil is allowed; every table is then made fresh.
	Scratch *ir.Scratch

	// Artifacts, produced by successive passes.
	File    *ast.File
	Module  *ir.Module
	Splits  map[*ir.Region]*split.Result
	Regions []RegionInfo
	Output  *codegen.Output

	changes int
}

// NoteChanges records that the current pass made n IR changes; fixpoint
// groups iterate until a full round notes none, and CompileStats reports
// the totals per pass.
func (c *Context) NoteChanges(n int) { c.changes += n }

// PassStat is one row of the pipeline's timing/stat report. For a
// fixpoint group, Duration covers the whole iteration (so it overlaps its
// sub-passes' rows) and Runs counts rounds; for a sub-pass, Runs counts
// executions across rounds. The synthetic "verify" row accumulates every
// interposed ir.Verify.
type PassStat struct {
	Pass     string
	Duration time.Duration
	Runs     int
	Changes  int
}

// VerifyPass is the name of the synthetic stat row for interposed
// verification.
const VerifyPass = "verify"

type entry struct {
	pass     Pass
	required bool   // structural pass: cannot be disabled
	group    string // non-empty for fixpoint sub-passes (name of the group)
}

// Manager registers passes and runs them in order.
type Manager struct {
	entries  []entry
	byName   map[string]int // index into entries
	disabled map[string]bool
	stats    []PassStat
	statIdx  map[string]int
}

// New returns an empty pass manager.
func New() *Manager {
	return &Manager{
		byName:   map[string]int{},
		disabled: map[string]bool{},
		statIdx:  map[string]int{},
	}
}

func (m *Manager) add(p Pass, required bool, group string) {
	if _, dup := m.byName[p.Name()]; dup {
		panic(fmt.Sprintf("pipeline: duplicate pass %q", p.Name()))
	}
	m.byName[p.Name()] = len(m.entries)
	m.entries = append(m.entries, entry{pass: p, required: required, group: group})
}

// Register appends a required structural pass (parse, lower, ssa, split,
// codegen): it cannot be disabled, because later passes depend on its
// artifacts.
func (m *Manager) Register(p Pass) { m.add(p, true, "") }

// RegisterOptional appends a pass that may be disabled by name.
func (m *Manager) RegisterOptional(p Pass) { m.add(p, false, "") }

// RegisterFixpoint appends a named group of optional sub-passes iterated
// in order until a full round notes no changes (or maxRounds is reached).
// The group itself and each sub-pass can be disabled independently.
func (m *Manager) RegisterFixpoint(name string, maxRounds int, subs ...Pass) {
	fx := &fixpoint{name: name, max: maxRounds, subs: subs, m: m}
	m.add(fx, false, "")
	for _, p := range subs {
		m.add(p, false, name)
	}
}

// Passes returns the registered pass names in pipeline order (fixpoint
// sub-passes follow their group).
func (m *Manager) Passes() []string {
	names := make([]string, len(m.entries))
	for i, e := range m.entries {
		names[i] = e.pass.Name()
	}
	return names
}

// Disable turns off the named passes. Unknown names and structural passes
// are errors (a typo in an ablation flag must not silently run the full
// pipeline).
func (m *Manager) Disable(names []string) error {
	for _, n := range names {
		i, ok := m.byName[n]
		if !ok {
			return fmt.Errorf("pipeline: unknown pass %q (have %v)", n, m.Passes())
		}
		if m.entries[i].required {
			return fmt.Errorf("pipeline: pass %q is structural and cannot be disabled", n)
		}
		m.disabled[n] = true
	}
	return nil
}

// Run executes the enabled passes in order. Fixpoint sub-passes are run
// by their group, not at their own registration position.
func (m *Manager) Run(ctx *Context) error {
	for _, e := range m.entries {
		if e.group != "" || m.disabled[e.pass.Name()] {
			continue
		}
		if _, err := m.runOne(ctx, e.pass, false); err != nil {
			return err
		}
	}
	return nil
}

// runOne times and runs a single pass, interposes verification/dumping,
// and records its stats. inGroup marks fixpoint sub-pass runs, whose IR
// dumps are suppressed on rounds that changed nothing.
func (m *Manager) runOne(ctx *Context, p Pass, inGroup bool) (int, error) {
	ctx.changes = 0
	start := time.Now()
	err := p.Run(ctx)
	d := time.Since(start)
	if d <= 0 {
		d = 1 // clock granularity floor: every executed pass has a duration
	}
	changed := ctx.changes
	m.note(p.Name(), d, changed)
	if err != nil {
		// Pass errors surface unwrapped: parse/lower diagnostics are
		// user-facing and their text must not grow pipeline prefixes.
		return changed, err
	}
	mutates := false
	if mu, ok := p.(IRMutator); ok {
		mutates = mu.MutatesIR()
	}
	if (mutates || ctx.VerifyAll) && ctx.Module != nil {
		if err := m.verify(ctx, p.Name()); err != nil {
			return changed, err
		}
	}
	if mutates && ctx.Module != nil && ctx.DumpIR != nil && (!inGroup || changed > 0) {
		for _, f := range ctx.Module.Funcs {
			ctx.DumpIR(p.Name(), f.Name, f.String())
		}
	}
	return changed, nil
}

// verify checks every function and accumulates the cost under the
// synthetic "verify" stat row.
func (m *Manager) verify(ctx *Context, after string) error {
	start := time.Now()
	var err error
	for _, f := range ctx.Module.Funcs {
		if err = ir.Verify(f, ctx.Scratch); err != nil {
			err = fmt.Errorf("internal: verify after %s: %w", after, err)
			break
		}
	}
	d := time.Since(start)
	if d <= 0 {
		d = 1
	}
	m.note(VerifyPass, d, 0)
	return err
}

func (m *Manager) note(pass string, d time.Duration, changes int) {
	i, ok := m.statIdx[pass]
	if !ok {
		i = len(m.stats)
		m.statIdx[pass] = i
		m.stats = append(m.stats, PassStat{Pass: pass})
	}
	m.stats[i].Duration += d
	m.stats[i].Runs++
	m.stats[i].Changes += changes
}

// Stats returns per-pass durations, run counts and change counts in
// first-execution order (disabled passes are absent).
func (m *Manager) Stats() []PassStat {
	out := make([]PassStat, len(m.stats))
	copy(out, m.stats)
	return out
}

// fixpoint iterates its enabled sub-passes in order until a full round
// notes no changes.
type fixpoint struct {
	name string
	max  int
	subs []Pass
	m    *Manager
}

func (fx *fixpoint) Name() string { return fx.name }

func (fx *fixpoint) Run(ctx *Context) error {
	total := 0
	for round := 0; round < fx.max; round++ {
		changed := 0
		for _, p := range fx.subs {
			if fx.m.disabled[p.Name()] {
				continue
			}
			n, err := fx.m.runOne(ctx, p, true)
			if err != nil {
				return err
			}
			changed += n
		}
		total += changed
		if changed == 0 {
			break
		}
	}
	// Attribute the group's total so its own stat row reports it.
	ctx.changes = total
	return nil
}
