package main

import "fmt"

// traceStats splits the traced ops by what the runtime did for them, read
// from the counters around each op: a cold op stitched a new version
// (Region.Compiles rose); a warm op ran neither set-up nor the stitcher.
type traceStats struct {
	warmOps, coldOps int
	warmNs, coldNs   int64 // vm.call time of those ops
	warmInsts        uint64
	lt               layerTimes // the repetition's spans, reduced
}

func (ts *traceStats) op(tr *tracer, root int32, pre, post counts) {
	var call int64
	for _, s := range tr.spans[root+1:] {
		if s.name == spanCall {
			call += s.end - s.start
		}
	}
	switch {
	case post.Compiles > pre.Compiles:
		ts.coldOps++
		ts.coldNs += call
	case post.SetupCycles == pre.SetupCycles && post.StitchCycles == pre.StitchCycles:
		ts.warmOps++
		ts.warmNs += call
		ts.warmInsts += post.Insts - pre.Insts
	}
}

// passRows maps per-layer metric names to pipeline pass rows. The
// optimize group's own row overlaps the verification interposed after each
// of its sub-passes, which the verify row already holds, so the group is
// accounted as the sum of its sub-passes.
var passRows = []struct {
	metric string
	passes []string
}{
	{"parser.parse_us", []string{"parse"}},
	{"lower.lower_us", []string{"lower"}},
	{"ir.ssa_us", []string{"ssa"}},
	{"ir.verify_us", []string{"verify"}},
	{"core.autoregion_us", []string{"autoregion"}},
	{"core.inline_us", []string{"inline"}},
	{"opt.optimize_us", []string{"const-fold", "simplify", "branch-fold", "copy-prop", "cse", "dce"}},
	{"split.split_us", []string{"split"}},
	{"codegen.codegen_us", []string{"codegen"}},
	{"stencil.stencil_us", []string{"stencil"}},
}

// spanDumpOps bounds the span file: it holds the first traced
// repetition's set-up and teardown spans and the spans of its first
// spanDumpOps ops. Every span still counts in the per-layer metrics.
const spanDumpOps = 100000

// runTraced alternates n traced and untraced repetitions of the same ops,
// and reports the per-layer metrics, each the median over the pairs. The
// untraced repetition of a pair gives the tracing overhead, the GC figures
// and the host timings. Every repetition's exact counters must agree.
func runTraced(w workload, sp spec, n int, spansPath string) (*result, error) {
	tr := newTracer()
	reps, measured, err := repeat(w, sp, n, func(k int) *tracer {
		if k%2 == 1 {
			return nil
		}
		tr.reset()
		return tr
	}, func(k int, r *rep) error {
		if r.trace == nil {
			return nil
		}
		r.trace.lt = tr.reduce()
		if k > 0 {
			return nil
		}
		if err := tr.dump(spansPath, spanDumpOps); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m := map[string][]float64{}
	for k := 0; k+1 < len(reps); k += 2 {
		for name, v := range layerMetrics(reps[k], reps[k+1]) {
			m[name] = append(m[name], v)
		}
	}
	return finish(reps, sp, measured, m, layerUnits)
}

// layerMetrics derives the per-layer metrics of one traced repetition t
// and the untraced repetition u of the same ops.
func layerMetrics(t, u *rep) map[string]float64 {
	l, ts, c, lt := t.layers, t.trace, t.counts, &t.trace.lt
	ops := float64(len(t.lat))
	us := func(ns int64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n) / 1e3
	}
	perStitch := func(x uint64) float64 { return ratio(x, c.Stitches) }
	compiled := int64(l.compiled)
	times := opTimes(u)
	m := map[string]float64{
		// Compile side, per compiled program.
		"core.compile_us":     us(lt.dur[spanCompile]+lt.dur[spanCompileBatch], compiled),
		"core.compile_allocs": ratio(l.compileAllocs, uint64(l.compiled)),
		// Machine lifecycle, calls and close.
		"vm.machine_new_us":         us(lt.dur[spanMachineNew], lt.n[spanMachineNew]),
		"vm.call_us":                us(lt.dur[spanCall], lt.n[spanCall]),
		"vm.host_ns_per_guest_inst": ratio(uint64(ts.warmNs), ts.warmInsts),
		"rtr.warm_op_ns":            1e3 * us(ts.warmNs, int64(ts.warmOps)),
		"rtr.cold_op_us":            us(ts.coldNs, int64(ts.coldOps)),
		"rtr.close_us":              us(lt.dur[spanClose], lt.n[spanClose]),
		// Exact counts over the repetition.
		"vm.guest_insts_per_op":                   float64(c.Insts) / ops,
		"vm.exec_cycles_per_op":                   float64(c.ExecCycles) / ops,
		"rtr.promotions":                          float64(c.Promotions),
		"rtr.deopts":                              float64(c.Deopts),
		"rtr.stitches_per_kop":                    1e3 * float64(c.Stitches) / ops,
		"rtr.restitch_frac":                       perStitch(c.Restitches),
		"rtr.shared_hit_frac":                     ratio(c.SharedHits, c.Lookups),
		"rtr.evictions_per_kop":                   1e3 * float64(c.Evictions) / ops,
		"rtr.l2_evictions_per_kop":                1e3 * float64(c.L2Evictions) / ops,
		"rtr.stencil_frac":                        perStitch(c.StencilStitches),
		"stitcher.insts_per_stitch":               perStitch(c.InstsStitched),
		"stitcher.cycles_per_stitch":              perStitch(c.StitchCycles),
		"stitcher.holes_per_stitch":               perStitch(c.HolesPatched),
		"stitcher.branches_resolved_per_stitch":   perStitch(c.BranchesResolved),
		"stitcher.strength_reductions_per_stitch": perStitch(c.StrengthReductions),
		"vm.setup_cycles_per_stitch":              perStitch(c.SetupCycles),
		"vm.overhead_cycles_frac":                 ratio(c.SetupCycles+c.StitchCycles, c.Cycles),
		"segio.store_hit_frac":                    ratio(c.StoreHits, c.StoreHits+c.StoreMisses),
		"segio.store_puts_per_kop":                1e3 * float64(c.StorePuts) / ops,
		"segio.store_errors":                      float64(c.StoreErrors),
		"failed_ops_frac":                         float64(t.failed) / ops,
		// Host timings of the untraced repetition's op phase.
		"host.ops_per_s": times["ops_per_s"],
		"host.op_p50_us": times["op_p50_us"],
		"host.op_p99_us": times["op_p99_us"],
		// Go runtime, from the untraced repetition.
		"go.gc_cycles_per_kop": 1e3 * float64(u.gcs) / ops,
		"go.gc_pause_ms":       ratio(u.gcPause, uint64(u.gcs)) / 1e6,
		// The trace itself: op time outside every child span, and the
		// traced phase against the untraced one.
		"trace.unattributed_frac": ratio(uint64(lt.self[spanOp]), uint64(lt.dur[spanOp])),
		"trace.overhead_frac":     t.wall.Seconds()/u.wall.Seconds() - 1,
	}
	rows := 0.0
	for _, pr := range passRows {
		var ns int64
		for _, p := range pr.passes {
			ns += l.passes[p]
		}
		m[pr.metric] = us(ns, compiled)
		rows += m[pr.metric]
	}
	m["core.compile_unattributed_us"] = m["core.compile_us"] - rows
	return m
}

// layerUnits gives every per-layer metric its unit.
var layerUnits = map[string]string{
	"core.compile_us": "us", "core.compile_unattributed_us": "us", "core.compile_allocs": "count",
	"parser.parse_us": "us", "lower.lower_us": "us", "ir.ssa_us": "us", "ir.verify_us": "us",
	"core.autoregion_us": "us", "core.inline_us": "us", "opt.optimize_us": "us",
	"split.split_us": "us", "codegen.codegen_us": "us", "stencil.stencil_us": "us",
	"vm.machine_new_us": "us", "vm.call_us": "us", "vm.host_ns_per_guest_inst": "ns",
	"rtr.warm_op_ns": "ns", "rtr.cold_op_us": "us", "rtr.close_us": "us",
	"vm.guest_insts_per_op": "count", "vm.exec_cycles_per_op": "cycles",
	"rtr.promotions": "count", "rtr.deopts": "count",
	"rtr.stitches_per_kop": "1/kop", "rtr.restitch_frac": "fraction",
	"rtr.shared_hit_frac": "fraction", "rtr.evictions_per_kop": "1/kop",
	"rtr.l2_evictions_per_kop": "1/kop", "rtr.stencil_frac": "fraction",
	"stitcher.insts_per_stitch": "count", "stitcher.cycles_per_stitch": "cycles",
	"stitcher.holes_per_stitch": "count", "stitcher.branches_resolved_per_stitch": "count",
	"stitcher.strength_reductions_per_stitch": "count",
	"vm.setup_cycles_per_stitch":              "cycles", "vm.overhead_cycles_frac": "fraction",
	"segio.store_hit_frac": "fraction", "segio.store_puts_per_kop": "1/kop",
	"segio.store_errors": "count", "failed_ops_frac": "fraction",
	"host.ops_per_s": "1/s", "host.op_p50_us": "us", "host.op_p99_us": "us",
	"go.gc_cycles_per_kop": "1/kop", "go.gc_pause_ms": "ms",
	"trace.unattributed_frac": "fraction", "trace.overhead_frac": "fraction",
}
