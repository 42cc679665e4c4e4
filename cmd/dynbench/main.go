// Command dynbench regenerates the paper's experimental results: Table 2
// (speedups, breakeven points, overheads), Table 3 (optimizations applied
// dynamically), the Figure 1 / section 4 cache-lookup walk-through, the
// section 5 register-actions result, and — beyond the paper — a
// parallel-machines sweep exercising the cross-machine stitch cache.
//
// With -json the run's measurements are also written machine-readable for
// regression tracking. Every mode shares one envelope:
//
//	{"mode": "...", "config": {...}, "results": {...}}
//
// where mode names the benchmarks that ran (joined with "+" when several
// ran in one invocation), config records the effective knob settings
// (including GOMAXPROCS), and results holds one section per benchmark.
//
//	dynbench -parallel 8 -json BENCH_1.json
//
// -cachechurn measures the bounded stitch cache under a high-cardinality
// Zipf-distributed key stream (eviction churn, re-stitches, hot-set hit
// rate):
//
//	dynbench -cachechurn -json BENCH_3.json
//
// -asyncstitch measures caller-visible cold-key latency with inline versus
// background stitching (the tiered-execution result):
//
//	dynbench -asyncstitch -json BENCH_4.json
//
// -serve runs the multi-tenant serving benchmark: a testgen-generated
// fleet of tenant programs batch-compiled through CompileBatch (timed
// against serial compilation, byte-identity checked), then served with
// Zipf traffic over tenants and keys under capped per-region caches and
// async stitching:
//
//	dynbench -serve -json BENCH_7.json
//
// -coldstart measures restart-to-warm against the persistent (level-0)
// code cache: a fresh runtime serves a sweep of distinct keys against an
// empty on-disk store versus one a previous process populated:
//
//	dynbench -coldstart -json BENCH_8.json
//
// -inline compares the demand-driven inlining pass against its ablation
// (`-disable-pass inline`) on a helper-heavy keyed region, plus an
// annotation-stripped subject that auto-promotes through its calls:
//
//	dynbench -inline -json BENCH_10.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"dyncc/internal/bench"
)

// jsonEnvelope is the shared -json shape for every mode.
type jsonEnvelope struct {
	Mode    string      `json:"mode"`
	Config  jsonConfig  `json:"config"`
	Results jsonResults `json:"results"`
}

// jsonConfig records the effective settings of the run.
type jsonConfig struct {
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Uses         int    `json:"uses,omitempty"`
	Merged       bool   `json:"merged,omitempty"`
	Parallel     int    `json:"parallel,omitempty"`
	ChurnCap     int    `json:"churn_cap,omitempty"`
	ChurnKeys    int    `json:"churn_keys,omitempty"`
	CTIters      int    `json:"ct_iters,omitempty"`
	HostDur      string `json:"host_dur,omitempty"`
	Tenants      int    `json:"tenants,omitempty"`
	Requests     int    `json:"requests,omitempty"`
	Workers      int    `json:"compile_workers,omitempty"`
	ColdKeys     int    `json:"cold_keys,omitempty"`
	AutoPhases   int    `json:"auto_phases,omitempty"`
	AutoPhaseLen int    `json:"auto_phase_len,omitempty"`
	InlineCalls  int    `json:"inline_calls,omitempty"`
}

// jsonResults holds one section per benchmark that ran.
type jsonResults struct {
	Table2         []jsonRow                `json:"table2,omitempty"`
	Parallel       []*bench.ParallelResult  `json:"parallel,omitempty"`
	Host           []*bench.HostResult      `json:"host,omitempty"`
	HostBaseline   []*bench.HostResult      `json:"host_baseline,omitempty"`
	HostComparison []*bench.HostComparison  `json:"host_comparison,omitempty"`
	CacheChurn     *bench.ChurnResult       `json:"cache_churn,omitempty"`
	CompileTime    *bench.CompileTimeResult `json:"compile_time,omitempty"`
	ColdBurst      *bench.ColdBurstResult   `json:"cold_burst,omitempty"`
	Serve          *bench.ServeResult       `json:"serve,omitempty"`
	ColdStart      *bench.ColdStartResult   `json:"cold_start,omitempty"`
	AutoRegion     *bench.AutoRegionResult  `json:"auto_region,omitempty"`
	Inline         *bench.InlineResult      `json:"inline,omitempty"`
}

// legacyReport is the pre-envelope flat schema, still accepted by
// -hostbaseline so old BENCH_2.json baselines keep working.
type legacyReport struct {
	Host []*bench.HostResult `json:"host,omitempty"`
}

type jsonRow struct {
	Name              string  `json:"name"`
	Config            string  `json:"config"`
	Speedup           float64 `json:"speedup"`
	StaticPerUnit     float64 `json:"static_cycles_per_unit"`
	DynPerUnit        float64 `json:"dynamic_cycles_per_unit"`
	Breakeven         int     `json:"breakeven"`
	SetupCycles       uint64  `json:"setup_cycles"`
	StitchCycles      uint64  `json:"stitch_cycles"`
	StitchedInsts     uint64  `json:"stitched_insts"`
	Compiles          uint64  `json:"compiles"`
	CyclesPerStitched float64 `json:"cycles_per_stitched_inst"`
}

func writeEnvelope(path string, modes []string, cfg jsonConfig, results jsonResults, fail func(error)) {
	cfg.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep := jsonEnvelope{Mode: strings.Join(modes, "+"), Config: cfg, Results: results}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func main() {
	table := flag.Int("table", 0, "print table 2 or 3 (0 = both)")
	regact := flag.Bool("regactions", false, "also run the register-actions extension (section 5)")
	figure1 := flag.Bool("figure1", false, "print the Figure 1 / section 4 cache-lookup walk-through")
	merged := flag.Bool("merged", false, "use the section 7 merged set-up+stitch mode")
	uses := flag.Int("uses", 0, "override workload size")
	parallel := flag.Int("parallel", 0, "run the parallel-machines sweep up to N machines")
	cachechurn := flag.Bool("cachechurn", false, "run the bounded-cache churn benchmark (Zipf keys over a keyed region)")
	asyncstitch := flag.Bool("asyncstitch", false, "run the cold-burst latency comparison (inline vs background stitching)")
	compiletime := flag.Bool("compiletime", false, "measure per-pass static compile latency over the example corpus")
	ctIters := flag.Int("ctiters", 0, "compiles per program for -compiletime (0 = default 30)")
	churnCap := flag.Int("churncap", 0, "cache cap (MaxEntries) for -cachechurn (0 = default 256)")
	churnKeys := flag.Int("churnkeys", 0, "distinct keys for -cachechurn (0 = default 4096)")
	coldstart := flag.Bool("coldstart", false, "run the restart-to-warm benchmark (persistent store, populated vs empty)")
	coldkeys := flag.Int("coldkeys", 0, "single working-set size for -coldstart (0 = default sweep 64/256/1024)")
	autoregion := flag.Bool("autoregion", false, "run the automatic-promotion comparison (speculative vs static vs hand-annotated)")
	autoPhases := flag.Int("autophases", 0, "key phases for -autoregion (0 = default 8)")
	autoPhaseLen := flag.Int("autophaselen", 0, "calls per phase for -autoregion (0 = default 512)")
	inline := flag.Bool("inline", false, "run the demand-driven inlining comparison (inlined vs -disable-pass inline)")
	inlineCalls := flag.Int("inlinecalls", 0, "timed calls per subject for -inline (0 = default 20000)")
	serve := flag.Bool("serve", false, "run the multi-tenant Zipf serving benchmark (batch compile + serve latency)")
	tenants := flag.Int("tenants", 0, "tenant fleet size for -serve (0 = default 2000)")
	requests := flag.Int("requests", 0, "total serve requests for -serve (0 = default 100000)")
	workers := flag.Int("compileworkers", 0, "CompileBatch pool size for -serve (0 = default 8)")
	jsonPath := flag.String("json", "", "also write measurements to this file as JSON")
	hostperf := flag.Bool("hostperf", false, "measure host ns per guest instruction instead of the guest-cycle tables")
	hostBase := flag.String("hostbaseline", "", "baseline JSON (a previous -hostperf run) to compare against")
	hostDur := flag.Duration("hostdur", 300*time.Millisecond, "minimum timed window per host-perf kernel")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "dynbench:", err)
		os.Exit(1)
	}

	if *hostperf {
		runHostPerf(*hostBase, *jsonPath, *hostDur, fail)
		return
	}

	modes := []string{"table"}
	var results jsonResults
	cfgRec := jsonConfig{Uses: *uses, Merged: *merged}

	cfg := bench.Config{Uses: *uses, MergedStitch: *merged}
	rows, err := bench.Table2(cfg)
	if err != nil {
		fail(err)
	}
	if *table == 0 || *table == 2 {
		fmt.Println("Table 2: Speedup and Breakeven Point Results")
		bench.PrintTable2(os.Stdout, rows)
		fmt.Println()
	}
	if *table == 0 || *table == 3 {
		fmt.Println("Table 3: Optimizations Applied Dynamically")
		bench.PrintTable3(os.Stdout, bench.Table3(rows))
		fmt.Println()
	}
	for _, m := range rows {
		results.Table2 = append(results.Table2, jsonRow{
			Name: m.Name, Config: m.Config, Speedup: m.Speedup,
			StaticPerUnit: m.StaticPerUnit, DynPerUnit: m.DynPerUnit,
			Breakeven: m.Breakeven, SetupCycles: m.SetupCycles,
			StitchCycles: m.StitchCycles, StitchedInsts: m.StitchedInsts,
			Compiles: m.Compiles, CyclesPerStitched: m.CyclesPerStitched,
		})
	}
	if *figure1 {
		if err := bench.Figure1(os.Stdout); err != nil {
			fail(err)
		}
	}
	if *regact {
		fmt.Println("Section 5: register actions (calculator)")
		base, err := bench.Calculator(bench.Config{Uses: *uses})
		if err != nil {
			fail(err)
		}
		ra, err := bench.Calculator(bench.Config{Uses: *uses, RegisterActions: true})
		if err != nil {
			fail(err)
		}
		fmt.Printf("  plain stitching:   speedup %.2f\n", base.Speedup)
		fmt.Printf("  register actions:  speedup %.2f (loads promoted %d, stores promoted %d)\n",
			ra.Speedup, ra.Stitch.LoadsPromoted, ra.Stitch.StoresPromoted)
	}

	if *cachechurn {
		modes = append(modes, "cachechurn")
		cfgRec.ChurnCap = *churnCap
		cfgRec.ChurnKeys = *churnKeys
		results.CacheChurn, err = bench.CacheChurn(0, *uses, *churnKeys, *churnCap)
		if err != nil {
			fail(err)
		}
		fmt.Println("Cache churn: bounded stitch cache under a Zipf key stream")
		bench.PrintChurn(os.Stdout, results.CacheChurn)
		fmt.Println()
	}

	if *compiletime {
		modes = append(modes, "compiletime")
		cfgRec.CTIters = *ctIters
		results.CompileTime, err = bench.CompileTime(*ctIters)
		if err != nil {
			fail(err)
		}
		fmt.Println("Compile time: per-pass static compile latency (example corpus)")
		bench.PrintCompileTime(os.Stdout, results.CompileTime)
		fmt.Println()
	}

	if *asyncstitch {
		modes = append(modes, "asyncstitch")
		results.ColdBurst, err = bench.ColdBurst(0, 0)
		if err != nil {
			fail(err)
		}
		fmt.Println("Cold burst: caller-visible latency, inline vs background stitching")
		bench.PrintColdBurst(os.Stdout, results.ColdBurst)
		fmt.Println()
	}

	if *coldstart {
		modes = append(modes, "coldstart")
		cfgRec.ColdKeys = *coldkeys
		var sizes []int
		if *coldkeys > 0 {
			sizes = []int{*coldkeys}
		}
		results.ColdStart, err = bench.ColdStart(sizes)
		if err != nil {
			fail(err)
		}
		fmt.Println("Cold start: restart-to-warm, empty vs populated persistent store")
		bench.PrintColdStart(os.Stdout, results.ColdStart)
		fmt.Println()
	}

	if *parallel > 0 {
		modes = append(modes, "parallel")
		cfgRec.Parallel = *parallel
		results.Parallel, err = bench.ParallelSweep(*parallel, *uses)
		if err != nil {
			fail(err)
		}
		fmt.Printf("Parallel machines: shared stitch cache, %d distinct keys (GOMAXPROCS=%d)\n",
			results.Parallel[0].Keys, runtime.GOMAXPROCS(0))
		bench.PrintParallel(os.Stdout, results.Parallel)
		fmt.Println()
	}

	if *autoregion {
		modes = append(modes, "autoregion")
		cfgRec.AutoPhases = *autoPhases
		cfgRec.AutoPhaseLen = *autoPhaseLen
		results.AutoRegion, err = bench.AutoRegion(*autoPhases, *autoPhaseLen)
		if err != nil {
			fail(err)
		}
		fmt.Println("Auto region: speculative promotion vs static vs hand-annotated")
		bench.PrintAutoRegion(os.Stdout, results.AutoRegion)
		fmt.Println()
	}

	if *inline {
		modes = append(modes, "inline")
		cfgRec.InlineCalls = *inlineCalls
		results.Inline, err = bench.Inline(*inlineCalls)
		if err != nil {
			fail(err)
		}
		fmt.Println("Inlining: specialization through call boundaries vs ablated")
		bench.PrintInline(os.Stdout, results.Inline)
		fmt.Println()
	}

	if *serve {
		modes = append(modes, "serve")
		cfgRec.Tenants = *tenants
		cfgRec.Requests = *requests
		cfgRec.Workers = *workers
		results.Serve, err = bench.Serve(bench.ServeConfig{
			Tenants:        *tenants,
			Requests:       *requests,
			CompileWorkers: *workers,
			Async:          true,
		})
		if err != nil {
			fail(err)
		}
		fmt.Println("Serve: multi-tenant batch compile + Zipf serving")
		bench.PrintServe(os.Stdout, results.Serve)
		fmt.Println()
	}

	if *jsonPath != "" {
		writeEnvelope(*jsonPath, modes, cfgRec, results, fail)
	}
}

// parseHostBaseline decodes a -hostbaseline file in either accepted
// schema: the shared {mode, config, results} envelope (host rows under
// results.host) or the pre-envelope flat report (host rows at top level).
// A file in neither schema — or an envelope without host rows — yields an
// error rather than a silently empty baseline.
func parseHostBaseline(data []byte) ([]*bench.HostResult, error) {
	var rep jsonEnvelope
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	if rep.Results.Host != nil {
		return rep.Results.Host, nil
	}
	// Pre-envelope baselines kept the host rows at top level.
	var old legacyReport
	if err := json.Unmarshal(data, &old); err == nil && old.Host != nil {
		return old.Host, nil
	}
	return nil, fmt.Errorf("no host rows found (neither envelope results.host nor legacy top-level host)")
}

// runHostPerf measures host ns per guest instruction (the interpreter-loop
// cost the fusion pipeline and attribution plan optimize), optionally
// comparing against a recorded baseline, and writes BENCH_2.json-style
// output when -json is given.
func runHostPerf(basePath, jsonPath string, minDur time.Duration, fail func(error)) {
	rows, err := bench.HostPerf(bench.Config{}, minDur)
	if err != nil {
		fail(err)
	}
	var baseline []*bench.HostResult
	if basePath != "" {
		data, err := os.ReadFile(basePath)
		if err != nil {
			fail(err)
		}
		baseline, err = parseHostBaseline(data)
		if err != nil {
			fail(fmt.Errorf("parse %s: %w", basePath, err))
		}
	}
	cmp := bench.CompareHost(rows, baseline)
	fmt.Println("Host performance: ns per guest instruction (warm interpreter loop)")
	bench.PrintHost(os.Stdout, rows, cmp)

	if jsonPath != "" {
		writeEnvelope(jsonPath, []string{"hostperf"},
			jsonConfig{HostDur: minDur.String()},
			jsonResults{Host: rows, HostBaseline: baseline, HostComparison: cmp},
			fail)
	}
}
