package rtr

import (
	"encoding/binary"
	"sync"

	"dyncc/internal/segio"
	"dyncc/internal/stitcher"
	"dyncc/internal/tmpl"
	"dyncc/internal/vm"
)

// DefaultShards is the shard count of the shared (level-1) stitch cache
// when CacheOptions.Shards is zero. 32 shards keep lock contention
// negligible for any realistic machine count while costing a few hundred
// bytes per runtime; the count is rounded up to a power of two so shard
// selection is a mask, not a modulo.
const DefaultShards = 32

// DefaultKeepStitchedCap bounds diagnostic segment retention when
// CacheOptions.KeepStitched is on and no explicit cap is given. Retention
// is a debugging aid; a few hundred segments cover every dump and golden
// test while keeping a long KeepStitched run from leaking.
const DefaultKeepStitchedCap = 512

// CacheOptions tune the runtime's two-level stitch cache. The zero value
// preserves the historical behaviour exactly: unbounded retention at both
// levels, cross-machine sharing on, no churn histogram.
type CacheOptions struct {
	// KeepStitched retains stitched segments in Runtime.Stitched for
	// diagnostics (golden tests, disassembly dumps). Off by default: a
	// long-running server would otherwise hold every segment it ever
	// stitched, even ones its machines have dropped.
	KeepStitched bool
	// KeepStitchedCap bounds KeepStitched retention (total segments across
	// regions; 0 = DefaultKeepStitchedCap). Once full, later segments are
	// simply not retained — diagnostics capture the beginning of a run.
	KeepStitchedCap int
	// Shards overrides the shared-cache shard count (0 = DefaultShards;
	// values are rounded up to a power of two).
	Shards int
	// NoShare disables the cross-machine shared cache: every machine
	// stitches its own segments, as if all regions were unshareable.
	// Stitch deduplication across goroutines is disabled with it.
	NoShare bool

	// MaxEntries bounds the number of resident segments in the shared
	// (level-1) cache across all regions and shards (0 = unbounded).
	// In-flight singleflight entries are pinned and do not count against
	// the cap; eviction uses a per-shard CLOCK (second-chance) policy.
	MaxEntries int
	// MaxCodeBytes bounds the resident stitched-code footprint of the
	// shared cache in bytes (0 = unbounded), using vm.Segment.MemFootprint
	// as the per-segment size. A single segment larger than the cap is
	// still cached (the cache must publish it to waiters) and evicted as
	// soon as anything else arrives.
	MaxCodeBytes int64
	// MaxEntriesPerRegion bounds the resident shared-cache segments of any
	// single region (0 = unbounded). Enforcement is best-effort across
	// shards: a region briefly overshoots while a concurrent publish in
	// another shard completes.
	MaxEntriesPerRegion int
	// MaxCodeBytesPerRegion bounds the resident code bytes of any single
	// region (0 = unbounded), with the same best-effort cross-shard
	// enforcement as MaxEntriesPerRegion.
	MaxCodeBytesPerRegion int64
	// MachineMaxEntries bounds each machine's private (level-2) cache
	// (total segments across regions, 0 = unbounded). Eviction is
	// second-chance FIFO: a slot referenced since it was last considered
	// gets one more pass before it is dropped.
	MachineMaxEntries int

	// ChurnStats enables the optional per-region churn histogram
	// (Runtime.Churn): stitches, evictions and re-stitches per region.
	// The counters are touched only on the cold stitch/evict paths, but
	// they are off by default to keep the zero value allocation-free.
	ChurnStats bool

	// AsyncStitch routes shared-cache misses of key-driven shareable
	// regions to a bounded background worker pool instead of stitching
	// inline: the missing call (and every call until the stitch publishes)
	// executes the region on the generic fallback tier — set-up plus an
	// unspecialized rendering of the templates (stitcher.Generic) — so no
	// caller ever blocks on compilation. Requires a key set-up function
	// (Runtime.KeySetup, installed by the compiler front end for regions it
	// proved shareable); regions without one stitch inline as before.
	// See async.go for the pipeline and DESIGN.md "Tiered execution".
	AsyncStitch bool
	// StitchWorkers sizes the background stitcher pool
	// (0 = DefaultStitchWorkers). Workers are started lazily on the first
	// scheduled stitch and stopped by Runtime.Close.
	StitchWorkers int
	// StitchQueue bounds the pending-stitch queue
	// (0 = DefaultStitchQueue). When the queue is full, new cold keys are
	// not enqueued (backpressure, counted in CacheStats.QueueRejects);
	// their callers stay on the fallback tier and a later miss retries.
	StitchQueue int

	// Store, when non-nil, adds a persistent content-addressed level-0
	// tier behind the shared cache: on a keyed-shareable miss the runtime
	// consults the store by digest before stitching, and successful
	// stitches are published back asynchronously, so a restarted server
	// (or another process sharing the store) skips re-stitching its hot
	// set. The hot path never blocks on store I/O. See store.go for the
	// digest derivation and invalidation interplay, and segio.OpenDir for
	// the on-disk implementation.
	Store segio.Store
	// StoreQueue bounds the pending store-publish queue
	// (0 = DefaultStoreQueue). A full queue drops the operation, counted
	// in CacheStats.StoreErrors.
	StoreQueue int
}

// cacheKey identifies one specialization in the shared cache.
type cacheKey struct {
	region int
	key    string // binary-encoded key-register values
}

// entry is one shared-cache slot with a singleflight latch: the goroutine
// that creates the entry stitches; later arrivals block on done and read
// seg/err. Entries whose stitch failed are removed so a later attempt can
// retry (the error is still delivered to every waiter of that attempt).
//
// Lifecycle: an entry is *in-flight* from creation until done is closed
// (pinned — the eviction clock never sees it, because only published
// entries join the shard ring), then *resident* once published into the
// ring, until evicted or invalidated. gen snapshots the region generation
// at claim time; lookups reject entries whose generation is stale, so a
// segment stitched against data invalidated mid-flight is served to its
// waiters (they began before the invalidation) but never retained.
type entry struct {
	key  cacheKey
	gen  uint64 // region generation at claim time
	done chan struct{}
	seg  *vm.Segment
	err  error

	// Guarded by the owning shard's mutex.
	putGen uint64 // generation the store holds this entry's blob under, once resident
	bytes  int64  // seg.MemFootprint(), cached at publish
	ref    bool   // CLOCK reference bit, set on every shared hit
	slot   int    // index in the shard's ring; -1 when not resident
}

// shard is one lock domain of the shared cache. Stitcher statistics and
// cache counters are accumulated per shard and folded on read so the
// stitch path never takes a runtime-global lock.
type shard struct {
	mu sync.Mutex
	// entries is made on the shard's first claim: most programs touch few
	// of their shards, and reads, range and delete are safe on nil.
	entries map[cacheKey]*entry
	ring    []*entry         // resident entries, in CLOCK order
	hand    int              // CLOCK hand into ring
	stats   []stitcher.Stats // per region index
	churn   []RegionChurn    // per region index; only with ChurnStats
	evicted evictLog         // recent capacity evictions, for restitch detection

	// Monotonic counters (never decremented; see CacheStats for the
	// lookup invariant).
	lookups        uint64
	hits           uint64 // lookups served by a completed entry
	waits          uint64 // lookups that found an in-flight stitch to coalesce onto
	misses         uint64 // lookups that found nothing
	failedHits     uint64 // lookups that found a completed-but-failed entry
	stitches       uint64 // successful stitches won in this shard
	failedStitches uint64 // stitches that returned an error
	evictions      uint64 // capacity evictions (invalidations are counted separately)
	restitches     uint64 // stitches of a key recently evicted for capacity
}

func numShards(opt int) int {
	n := opt
	if n <= 0 {
		n = DefaultShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// appendKey encodes the key-register values staged at DYNENTER into buf
// (varint-encoded, reusing buf's capacity). This replaces the seed's
// fmt.Sprintf key building, which allocated on every DYNENTER.
func appendKey(buf []byte, m *vm.Machine, r *tmpl.Region) []byte {
	for _, reg := range r.KeyRegs {
		buf = binary.AppendVarint(buf, m.Regs[reg])
	}
	return buf
}

// encodeKey renders explicit key values the way DYNENTER would stage them,
// for the InvalidateKey API.
func encodeKey(vals []int64) string {
	buf := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		buf = binary.AppendVarint(buf, v)
	}
	return string(buf)
}

// shardFor picks the shard for (region, key) by FNV-1a over the region
// index and the encoded key bytes.
func (rt *Runtime) shardFor(region int, key string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(region)) * prime64
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime64
	}
	return &rt.shards[h&uint64(len(rt.shards)-1)]
}

// lookupShared returns the completed segment for (region, key), or nil.
// In-flight entries are not waited on here: DYNENTER falls through into
// set-up instead, and the wait happens at stitch time where the in-flight
// window is pure host code (see stitchNow).
//
// Accounting invariant: every lookup increments exactly one of hits,
// waits, failedHits or misses, so at all times
//
//	lookups == hits + waits + failedHits + misses
//
// (see TestLookupAccountingInvariant). A lookup that finds an in-flight
// entry is a wait — the caller will coalesce onto that stitch — not a
// miss; the seed double-counted it as both.
func (rt *Runtime) lookupShared(region int, key string) *vm.Segment {
	sh := rt.shardFor(region, key)
	ck := cacheKey{region: region, key: key}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.lookups++
	e, ok := sh.entries[ck]
	if !ok {
		sh.misses++
		return nil
	}
	select {
	case <-e.done:
		if e.err != nil {
			// Completed but failed (narrow window before the stitcher's
			// own cleanup removes it): not a true miss — the key was
			// present — but unusable, so the caller re-stitches.
			sh.failedHits++
			return nil
		}
		if e.gen != rt.gens[region].Load() {
			// Invalidated after publish; drop it now rather than serving
			// a segment from a dead generation.
			sh.dropLocked(rt, e)
			sh.misses++
			return nil
		}
		sh.hits++
		e.ref = true
		return e.seg
	default:
		sh.waits++
		return nil
	}
}

// claim returns the singleflight entry of (region, key), creating and
// mapping one when none exists; won reports whether this call created it,
// in which case the caller must fill it with produce or fail it with
// withdraw. Everyone else blocks on e.done and reads e.seg/e.err. gen is
// the region's generation at claim time, the generation the missing
// lookup saw; produce consults the store under it. (e.gen starts equal to
// it but is shared state that InvalidateKey's sibling sweep may refresh
// under the shard lock; see settle for the put-back.)
func (rt *Runtime) claim(region int, key string) (e *entry, won bool, gen uint64) {
	sh := rt.shardFor(region, key)
	ck := cacheKey{region: region, key: key}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[ck]; ok {
		return e, false, 0
	}
	gen = rt.gens[region].Load()
	e = &entry{key: ck, gen: gen, done: make(chan struct{}), slot: -1}
	sh.mapLocked(ck, e)
	return e, true, gen
}

// mapLocked maps ck to e, making the shard's table on its first entry.
func (sh *shard) mapLocked(ck cacheKey, e *entry) {
	if sh.entries == nil {
		sh.entries = map[cacheKey]*entry{}
	}
	sh.entries[ck] = e
}

// withdraw fails a claim that will never be produced (a full stitch
// queue, a closed runtime): waiters get err, and the key is unmapped so a
// later miss can claim it again.
func (rt *Runtime) withdraw(e *entry, err error) {
	e.err = err
	sh := rt.shardFor(e.key.region, e.key.key)
	sh.mu.Lock()
	if sh.entries[e.key] == e {
		delete(sh.entries, e.key)
	}
	sh.mu.Unlock()
	close(e.done)
}

// produced is the result of one produce call.
type produced struct {
	seg      *vm.Segment
	stats    stitcher.Stats // zero unless stitched
	stitched bool           // the stitcher ran (false: adopted from the store)
	kept     bool           // published into the shared cache
	loadGen  uint64         // adoptions: the generation the blob was loaded from
}

// produce is the runtime's one stitch producer. It makes the segment for
// (region, key) under the claim e won (nil for a region that is not
// shared: no store, no publish) and generation gen from that claim:
// consult the store, else build the table, stitch and guard-wrap, then
// settle. The tier policy only chooses where produce runs and which table
// it reads: with m set, the one at tbl in m's memory (inline or merged
// set-up); with m nil, one KeySetup rebuilds from the key alone in a
// pooled arena (background worker). A store hit is adopted free: the
// caller charges the modeled stitch cost only when p.stitched.
func (rt *Runtime) produce(m *vm.Machine, tbl int64, region int, key string,
	e *entry, gen uint64) (p produced, err error) {

	if e != nil && rt.storeEnabled() {
		// Level 0, read only here, after winning the claim: concurrent
		// missers coalesce onto this one read and the warm lookup path
		// never sees the store.
		if p.seg = rt.storeLoad(region, gen, key); p.seg != nil {
			p.loadGen = gen
			return rt.settle(region, key, e, p, nil)
		}
	}
	r := rt.Regions[region]
	var (
		mem   []int64
		arena *[]int64
	)
	if m != nil {
		mem = m.Mem
	} else if keyVals, kerr := decodeKey(key, len(r.KeyRegs)); kerr != nil {
		err = kerr
	} else {
		arena = keyArenaPool.Get().(*[]int64)
		mem, tbl, err = rt.KeySetup[region](keyVals, *arena)
	}
	if err == nil {
		p.seg, p.stats, err = stitcher.Stitch(r, mem, tbl, rt.Prog.Segs[r.FuncID], rt.Opts.Stitcher)
	}
	if arena != nil {
		putKeyArena(arena, mem)
	}
	if err == nil {
		// Auto regions: wrap in deoptimization guards before the segment
		// is published or persisted, so every consumer sees guarded code.
		p.seg, err = guardStitch(r, p.seg, key)
	}
	p.stitched = true
	return rt.settle(region, key, e, p, err)
}

// settle finishes a produce call; its rules hold for every producer:
//
//   - e's latch is filled first, so its waiters get the segment or the
//     error even when the segment is not retained (they began before any
//     invalidation that declines it);
//   - each failed attempt counts one FailedStitches and unmaps e; each
//     stitch counts one Stitches, its statistics and churn, and a
//     Restitches if its key was recently evicted (an adoption only
//     forgets the eviction);
//   - the fence: e is published only if a resident slot could be
//     reserved, the region generation still equals e.gen and e is still
//     mapped (invalidation unmaps in-flight entries); otherwise it is
//     unmapped and nothing is retained;
//   - a published stitch is put to the store under the generation its
//     entry is resident under (e.gen read at the fence, under the shard
//     lock), not the claim's: a sibling InvalidateKey may have moved both
//     the region and e.gen on since the claim. The entry records that
//     generation as putGen (an adoption records the one its blob was
//     loaded from), because a later sibling sweep moves e.gen on again
//     while the blob stays put: every blob this process puts or adopts is
//     named by both store deletes (Invalidate's resident sweep and
//     InvalidateKey of its key), which read putGen. The caps are then
//     restored by reclaim;
//   - every segment produced is retained for diagnostics (keepStitched).
func (rt *Runtime) settle(region int, key string, e *entry,
	p produced, err error) (produced, error) {

	if e != nil {
		e.seg, e.err = p.seg, err
		close(e.done)
	}
	sh := rt.shardFor(region, key)
	ck := cacheKey{region: region, key: key}
	// Take the resident slot before the shard lock: reserveEntry may have
	// to wait for other shards' locks to evict.
	reserved := err == nil && e != nil && rt.reserveEntry(sh)
	sh.mu.Lock()
	if err != nil {
		sh.failedStitches++
		if e != nil && sh.entries[ck] == e {
			delete(sh.entries, ck)
		}
		sh.mu.Unlock()
		return p, err
	}
	restitch := sh.evicted.remove(ck)
	if p.stitched {
		sh.stitches++
		sh.addStatsLocked(region, &p.stats)
		if restitch {
			sh.restitches++
		}
		if rt.Opts.Cache.ChurnStats {
			c := sh.churnLocked(region)
			c.Stitches++
			if restitch {
				c.Restitches++
			}
		}
	}
	var putGen uint64
	if e != nil {
		p.kept = reserved && e.gen == rt.gens[region].Load() && sh.entries[ck] == e
		if p.kept {
			putGen = e.gen
			if !p.stitched {
				putGen = p.loadGen
			}
			e.putGen = putGen
			e.bytes = int64(p.seg.MemFootprint())
			rt.makeRoomLocked(sh, region, e.bytes)
			sh.publishLocked(rt, e)
		} else if sh.entries[ck] == e {
			delete(sh.entries, ck)
		}
	}
	sh.mu.Unlock()
	if p.kept {
		if p.stitched {
			rt.storePut(region, putGen, key, p.seg)
		}
		rt.reclaim(region)
	} else if reserved {
		rt.releaseEntry()
	}
	rt.keepStitched(region, p.seg)
	return p, nil
}

func (sh *shard) addStatsLocked(region int, st *stitcher.Stats) {
	for region >= len(sh.stats) {
		sh.stats = append(sh.stats, stitcher.Stats{})
	}
	sh.stats[region].Add(st)
}

// churnLocked returns the shard's churn slot for region, growing the
// histogram on demand.
func (sh *shard) churnLocked(region int) *RegionChurn {
	for region >= len(sh.churn) {
		sh.churn = append(sh.churn, RegionChurn{Region: len(sh.churn)})
	}
	return &sh.churn[region]
}

// Stats folds the per-shard stitcher statistics for region r across every
// stitch performed by any attached machine. (Per-shard accumulation keeps
// the stitch path off any runtime-global lock; folding happens only here,
// on the cold read path.)
func (rt *Runtime) Stats(r int) stitcher.Stats {
	var out stitcher.Stats
	for i := range rt.shards {
		sh := &rt.shards[i]
		sh.mu.Lock()
		if r < len(sh.stats) {
			out.Add(&sh.stats[r])
		}
		sh.mu.Unlock()
	}
	return out
}
