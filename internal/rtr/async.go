// Asynchronous background stitching (CacheOptions.AsyncStitch): the
// tiered-execution pipeline that takes stitching off the caller's critical
// path.
//
// With async stitching on, a shared-cache miss of an eligible region does
// not stitch inline. Instead the missing machine:
//
//  1. claims the (region, key) singleflight entry (coalescing with the
//     existing latch: concurrent missers of the same key schedule exactly
//     one stitch) and enqueues a job on a bounded queue served by a small
//     worker pool — with backpressure: a full queue withdraws the claim,
//     counts a QueueReject, and leaves the key for a later miss to retry;
//  2. runs this call on the generic fallback tier (set-up code plus the
//     region's unspecialized stitcher.Generic segment), so the call
//     completes at roughly statically-compiled speed while the stitch
//     happens elsewhere.
//
// A worker runs the same producer as an inline miss (produce, cache.go)
// on the claim the scheduling machine won; only the table differs. The
// producer re-derives the region's run-time constants table from the key
// bytes alone (Runtime.KeySetup, installed by the compiler for regions it
// proved Shareable — set-up provably depends only on the key values, so
// the worker needs no machine) in a pooled arena, so the store consult,
// guard wrap, generation fence, publish and store put-back are the inline
// ones: an entry invalidated (or explicitly flushed) while in flight is
// discarded, never published (CacheStats.AsyncDiscards). Eviction
// interacts as always — in-flight entries are pinned because only
// published entries join the CLOCK ring, and publishing makes room first.
//
// Promotion: the published entry is found by the very next lookupShared of
// that key, and the adopting machine installs it in its level-2 map, so
// the call after publish takes the warm zero-alloc DYNENTER path
// (TestAsyncPromotionNextCall). PromoteLatency histograms the
// schedule-to-publish time.
//
// Eligibility is per region: AsyncStitch on, a KeySetup function present,
// and the generic segment buildable (regions with more unrolled loops than
// the reserved record registers, or holes the generic renderer cannot
// defer, fall back to inline stitching — never to a wrong result).
package rtr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"dyncc/internal/stitcher"
	"dyncc/internal/vm"
)

// DefaultStitchWorkers sizes the background stitcher pool when
// CacheOptions.StitchWorkers is zero. Two workers keep cold-burst queues
// draining even while one stitch is long (a deeply unrolled region)
// without competing with the machines for more than a sliver of CPU.
const DefaultStitchWorkers = 2

// DefaultStitchQueue bounds the pending-stitch queue when
// CacheOptions.StitchQueue is zero.
const DefaultStitchQueue = 64

// PromoteBuckets is the size of the PromoteLatency histogram: bucket i
// counts publishes whose schedule-to-publish latency was in
// [2^(i-1), 2^i) nanoseconds (bucket 0: < 1ns).
const PromoteBuckets = 40

var (
	errAsyncQueueFull = errors.New("rtr: async stitch queue full")
	errRuntimeClosed  = errors.New("rtr: runtime closed")
)

// stitchJob is one queued background stitch: the claim the scheduling
// machine won, with the claim-time generation.
type stitchJob struct {
	e   *entry
	gen uint64
	enq time.Time
}

// genericSlot lazily caches a region's generic-tier segment (guarded by
// Runtime.genericMu). seg stays nil when the region cannot be rendered
// generically; the region then stitches inline.
type genericSlot struct {
	built bool
	seg   *vm.Segment
}

// asyncFallback decides whether a cold (region, key) takes the async path.
// If so it ensures a background stitch is scheduled (or already in flight)
// and returns the generic segment the caller should execute; nil means
// "stitch inline as always".
func (rt *Runtime) asyncFallback(region int, ks string) *vm.Segment {
	if rt.jobs == nil || rt.KeySetup[region] == nil {
		return nil
	}
	gseg := rt.generic(region)
	if gseg == nil {
		return nil
	}
	rt.schedule(region, ks)
	return gseg
}

// generic returns the region's generic-tier segment, building it on first
// use (nil if the region cannot be rendered generically).
func (rt *Runtime) generic(region int) *vm.Segment {
	gs := &rt.generics[region]
	rt.genericMu.Lock()
	defer rt.genericMu.Unlock()
	if !gs.built {
		gs.built = true
		r := rt.Regions[region]
		seg, err := stitcher.Generic(r, rt.Prog.Segs[r.FuncID], rt.Opts.Stitcher)
		if err == nil {
			gs.seg = seg
		}
	}
	return gs.seg
}

// schedule claims the singleflight entry for (region, key) and enqueues a
// background stitch. If the key is already resident, in flight or queued,
// it coalesces (no-op). If the queue is full, the claim is withdrawn
// (backpressure): callers stay on the fallback tier and a later miss
// retries.
func (rt *Runtime) schedule(region int, ks string) {
	e, won, gen := rt.claim(region, ks)
	if !won {
		return
	}
	// The quit-check and the send happen under closeMu's read side so they
	// are atomic with respect to Close: either the job is enqueued before
	// Close closes quit (and Close's drain fails it), or the closed quit is
	// observed here and the claim is withdrawn. Without this a send racing
	// Close could land after the drain, leaking the claim and the inflight
	// count forever (WaitIdle would never return).
	rt.closeMu.RLock()
	select {
	case <-rt.quit:
		// Closed: the queue is no longer drained, so enqueueing would leak
		// the claim forever. Withdraw it; callers keep running on the
		// fallback tier.
		rt.closeMu.RUnlock()
		rt.withdraw(e, errRuntimeClosed)
		return
	default:
	}
	rt.startWorkers()
	rt.inflight.Add(1)
	select {
	case rt.jobs <- stitchJob{e: e, gen: gen, enq: time.Now()}:
		rt.closeMu.RUnlock()
	default:
		rt.closeMu.RUnlock()
		rt.inflight.Add(-1)
		rt.queueRejects.Add(1)
		rt.withdraw(e, errAsyncQueueFull)
	}
}

// startWorkers spawns the worker pool on first use (so a runtime that
// never schedules a stitch never owns a goroutine).
func (rt *Runtime) startWorkers() {
	rt.workerOnce.Do(func() {
		n := rt.Opts.Cache.StitchWorkers
		if n <= 0 {
			n = DefaultStitchWorkers
		}
		for i := 0; i < n; i++ {
			go rt.worker()
		}
	})
}

func (rt *Runtime) worker() {
	for {
		select {
		case <-rt.quit:
			return
		case job := <-rt.jobs:
			rt.runJob(job)
		}
	}
}

// KeySetupFunc rebuilds a region's run-time constants table from its key
// values alone (see Runtime.KeySetup). It returns the memory image holding
// the table and the table base within it. When arena is large enough it
// is cleared and used as that image; otherwise a fresh one is allocated.
// The image belongs to the caller once the function returns.
type KeySetupFunc func(keyVals, arena []int64) (mem []int64, tbl int64, err error)

// maxPooledKeyArena caps the key set-up images kept for reuse, in words:
// one region with an outsized table must not pin its image forever.
const maxPooledKeyArena = 1 << 16

// keyArenaPool recycles key set-up memory images across background jobs.
var keyArenaPool = sync.Pool{New: func() any { return new([]int64) }}

// putKeyArena returns a job's memory image to the pool once the stitcher
// is done with it (a stitched segment copies everything it keeps). mem is
// the image the set-up function returned, nil when it failed, in which
// case the arena handed in is kept.
func putKeyArena(arena *[]int64, mem []int64) {
	if mem != nil {
		*arena = mem
	}
	if cap(*arena) > maxPooledKeyArena {
		*arena = nil
	}
	keyArenaPool.Put(arena)
}

// runJob produces one background stitch against a table rebuilt from the
// key bytes alone. Beyond produce's own accounting it counts the async
// tier: an AsyncStitch per stitch, an AsyncDiscard per stitch the fence
// declined, and the promote latency of every publish (a store adoption
// counts only its latency — nothing was stitched).
func (rt *Runtime) runJob(job stitchJob) {
	defer rt.inflight.Add(-1)
	p, err := rt.produce(nil, 0, job.e.key.region, job.e.key.key, job.e, job.gen)
	if err != nil {
		return
	}
	if p.stitched {
		rt.asyncStitches.Add(1)
		if !p.kept {
			rt.asyncDiscards.Add(1)
		}
	}
	if p.kept {
		rt.notePromote(time.Since(job.enq))
	}
}

// decodeKey reverses appendKey/encodeKey: n varint-encoded key-register
// values.
func decodeKey(key string, n int) ([]int64, error) {
	vals := make([]int64, 0, n)
	buf := []byte(key)
	for len(buf) > 0 {
		v, sz := binary.Varint(buf)
		if sz <= 0 {
			return nil, fmt.Errorf("rtr: malformed key encoding")
		}
		vals = append(vals, v)
		buf = buf[sz:]
	}
	if len(vals) != n {
		return nil, fmt.Errorf("rtr: key has %d values, region wants %d", len(vals), n)
	}
	return vals, nil
}

// notePromote records one publish latency in the power-of-two histogram.
func (rt *Runtime) notePromote(d time.Duration) {
	n := d.Nanoseconds()
	if n < 0 {
		n = 0
	}
	b := bits.Len64(uint64(n))
	if b >= PromoteBuckets {
		b = PromoteBuckets - 1
	}
	rt.promoteHist[b].Add(1)
}

// WaitIdle blocks until no background stitch or store operation is queued
// or running. Jobs scheduled after WaitIdle starts are waited on too;
// quiesce the machines first if you need a stable point. It is a
// diagnostics/test aid, not a synchronization primitive. Safe to call
// concurrently from any number of goroutines and before, during or after
// Close: Close fails queued jobs (decrementing the in-flight count) and
// drains the store queue, so a WaitIdle racing it still terminates.
func (rt *Runtime) WaitIdle() {
	for (rt.jobs != nil && rt.inflight.Load() > 0) ||
		(rt.storeOps != nil && rt.storeInflight.Load() > 0) {
		time.Sleep(20 * time.Microsecond)
	}
}

// Close stops the background workers and fails every still-queued stitch
// (their entries are withdrawn so the keys can stitch again if the runtime
// keeps being used inline), then shuts down the persistent-store publisher,
// draining its queue by *executing* the pending writes — a clean Close
// persists every stitch the store accepted (see closeStore). Close is
// idempotent and a no-op for runtimes without AsyncStitch or a Store; it
// is safe to call concurrently from any number of goroutines, concurrently
// with WaitIdle, and while attached machines are still scheduling (late
// schedulers observe the closed runtime and stay on the fallback tier).
// Jobs already being stitched by a worker finish and publish normally.
func (rt *Runtime) Close() {
	rt.closeAsync()
	rt.closeStore()
}

func (rt *Runtime) closeAsync() {
	if rt.quit == nil {
		return
	}
	rt.closeOnce.Do(func() {
		// Exclude in-flight enqueues (see schedule): after this unlock,
		// every job that won the race is in the queue and every loser has
		// withdrawn its claim, so the drain below is complete.
		rt.closeMu.Lock()
		close(rt.quit)
		rt.closeMu.Unlock()
		for {
			select {
			case job := <-rt.jobs:
				rt.withdraw(job.e, errRuntimeClosed)
				rt.inflight.Add(-1)
			default:
				return
			}
		}
	})
}

// Peek returns the published shared-cache segment for (region, key-values)
// without touching the lookup counters or reference bits — a diagnostics
// accessor (is this specialization resident?) used by the byte-identity
// tests.
func (rt *Runtime) Peek(region int, keyVals ...int64) *vm.Segment {
	ks := encodeKey(keyVals)
	sh := rt.shardFor(region, ks)
	ck := cacheKey{region: region, key: ks}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[ck]
	if !ok {
		return nil
	}
	select {
	case <-e.done:
		if e.err != nil {
			return nil
		}
		return e.seg
	default:
		return nil
	}
}
