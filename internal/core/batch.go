// Batch compilation: the static compiler parallelized across programs.
//
// The paper's economics amortize one program's compile cost over many
// executions; a multi-tenant server amortizes *compile throughput* over
// thousands of tenant programs, so the batch axis — not the single
// pipeline — is the scaling lever. CompileBatch runs the ordinary pass
// pipeline (an independent pipeline.Manager per program, so no pass state
// is shared) on a bounded pool of worker goroutines. The front end shares
// only the immutable interned tables (token keyword/name tables, the types
// universe, ir.Builtins, codegen's op map); the batch -race tests prove
// there is no hidden mutable global left in the pipeline.
package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"dyncc/internal/ir"
	"dyncc/internal/pipeline"
)

// BatchStats aggregates one CompileBatch run.
type BatchStats struct {
	// Programs and Failed count sources that compiled and that errored.
	Programs int
	Failed   int
	// Workers is the pool size the batch actually used.
	Workers int
	// Elapsed is the batch wall clock; ProgramsPerSec is Programs+Failed
	// over Elapsed (throughput including failed pipelines, which still
	// cost front-end time).
	Elapsed        time.Duration
	ProgramsPerSec float64
	// PassTotals merges every program's per-pass pipeline stats by pass
	// name — durations, run counts and change counts summed across
	// programs and workers — in first-execution order, so a batch compile
	// profiles exactly like a single compile, scaled.
	PassTotals []pipeline.PassStat
}

// BatchResult is a deterministic batch compilation result: slot i holds
// source i's program (or, in CollectErrors mode, its error).
type BatchResult struct {
	// Programs is index-aligned with the input sources; a slot is nil
	// exactly when that source failed to compile.
	Programs []*Compiled
	// Errs is index-aligned with the input sources and only populated in
	// Config.CollectErrors mode (nil otherwise); a slot is nil exactly
	// when that source compiled.
	Errs  []error
	Stats BatchStats
}

// batchWorkers resolves the worker-pool size for cfg: CompileWorkers,
// defaulting to GOMAXPROCS, never more than there are sources.
func batchWorkers(cfg Config, n int) int {
	w := cfg.CompileWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// CompileBatch compiles every source with the same configuration on a
// bounded pool of Config.CompileWorkers goroutines (default GOMAXPROCS).
// Output is deterministic regardless of scheduling: result slot i always
// corresponds to source i, and each program is byte-identical to what a
// serial Compile of its source produces (the pipeline shares only
// immutable interned front-end tables across workers).
//
// Error semantics are first-error-wins by default: the error of the
// lowest-indexed failing source is returned (with its index), and no
// partial result — deterministic even when a later source fails first in
// wall-clock time. With Config.CollectErrors the batch instead always
// returns a full BatchResult whose Errs slice reports every failure
// per slot.
func CompileBatch(srcs []string, cfg Config) (*BatchResult, error) {
	n := len(srcs)
	res := &BatchResult{
		Programs: make([]*Compiled, n),
		Errs:     make([]error, n),
	}
	workers := batchWorkers(cfg, n)
	start := time.Now()

	if n > 0 {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := new(ir.Scratch) // this worker's, reused program after program
				for i := range next {
					res.Programs[i], res.Errs[i] = compile(srcs[i], cfg, s)
				}
			}()
		}
		for i := range srcs {
			next <- i
		}
		close(next)
		wg.Wait()
	}

	res.Stats = BatchStats{Workers: workers, Elapsed: time.Since(start)}
	for _, p := range res.Programs {
		if p == nil {
			res.Stats.Failed++
			continue
		}
		res.Stats.Programs++
		res.Stats.PassTotals = mergePassStats(res.Stats.PassTotals, p.Stats)
	}
	if s := res.Stats.Elapsed.Seconds(); s > 0 {
		res.Stats.ProgramsPerSec = float64(n) / s
	}

	if !cfg.CollectErrors {
		for i, err := range res.Errs {
			if err != nil {
				return nil, fmt.Errorf("batch source %d: %w", i, err)
			}
		}
		res.Errs = nil
	}
	return res, nil
}

// mergePassStats folds src's per-pass rows into dst by pass name,
// preserving dst's first-execution order and appending unseen passes in
// src order (every program registers the same pipeline, so in practice
// the order is the single-compile pass order).
func mergePassStats(dst, src []pipeline.PassStat) []pipeline.PassStat {
	for _, st := range src {
		found := false
		for i := range dst {
			if dst[i].Pass == st.Pass {
				dst[i].Duration += st.Duration
				dst[i].Runs += st.Runs
				dst[i].Changes += st.Changes
				found = true
				break
			}
		}
		if !found {
			dst = append(dst, st)
		}
	}
	return dst
}
