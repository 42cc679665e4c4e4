// Eviction machinery for the shared (level-1) stitch cache: a per-shard
// CLOCK (second-chance) policy enforcing the global and per-region entry
// and code-byte caps, plus a bounded log of recent evictions so re-stitches
// of previously evicted keys are observable (CacheStats.Restitches).
//
// Resident accounting lives in runtime-global atomics (resident,
// residentBytes and their per-region slices) so a publishing shard can
// check the caps without touching any other shard's lock. The entry cap is
// hard: before taking its shard's lock, a publisher reserves a resident
// slot with a compare-and-swap below MaxEntries, evicting (its own shard
// first, then siblings in order, with blocking locks since it holds none)
// while the cache is full. The byte and per-region caps are enforced under
// the publishing shard's lock: it evicts from its own ring and, when that
// is empty, steals from a sibling via TryLock, which cannot deadlock;
// reclaim trims any overshoot after the publish. In-flight singleflight
// entries never join a ring, so they are pinned by construction.
package rtr

// evictLogSize bounds the per-shard memory of restitch detection: a stitch
// counts as a re-stitch when its key is among the shard's most recent
// evictLogSize capacity evictions. The log is deliberately bounded — exact
// forever-detection would need a tombstone per evicted key, re-creating
// the unbounded growth the cache caps exist to prevent — so Restitches is
// a lower bound under extreme churn.
const evictLogSize = 256

// evictLog is a fixed-capacity ring of recently evicted keys with an index
// for O(1) membership tests.
type evictLog struct {
	keys []cacheKey
	idx  map[cacheKey]int
	next int
}

func (l *evictLog) add(k cacheKey) {
	if l.idx == nil {
		l.idx = make(map[cacheKey]int, evictLogSize)
	}
	if _, ok := l.idx[k]; ok {
		return
	}
	if len(l.keys) < evictLogSize {
		l.idx[k] = len(l.keys)
		l.keys = append(l.keys, k)
		return
	}
	delete(l.idx, l.keys[l.next])
	l.keys[l.next] = k
	l.idx[k] = l.next
	l.next = (l.next + 1) % evictLogSize
}

// remove reports whether k was logged, forgetting it (a re-stitched key is
// resident again; it re-enters the log if evicted again). The freed slot is
// reclaimed by swapping the last key in — an earlier version left a
// permanent dead hole counting against evictLogSize, so a shard cycling
// restitches shrank the log's effective window (and undercounted
// Restitches) a little more with every removal.
func (l *evictLog) remove(k cacheKey) bool {
	i, ok := l.idx[k]
	if !ok {
		return false
	}
	delete(l.idx, k)
	last := len(l.keys) - 1
	if i != last {
		l.keys[i] = l.keys[last]
		l.idx[l.keys[i]] = i
	}
	l.keys = l.keys[:last]
	// next only indexes the ring when it is full (len == evictLogSize), and
	// removal just shrank it, so any next in [0, evictLogSize) stays valid
	// by the time the ring refills; no adjustment needed.
	return true
}

// publishLocked makes a completed entry resident: it joins the shard's
// CLOCK ring and the resident counters. Its global entry slot was taken
// beforehand by reserveEntry.
func (sh *shard) publishLocked(rt *Runtime, e *entry) {
	e.slot = len(sh.ring)
	sh.ring = append(sh.ring, e)
	rt.residentBytes.Add(e.bytes)
	// r >= 0: region -1 is a documented segment sentinel; an entry carrying
	// it must not panic the accounting (it simply isn't tracked per region).
	if r := e.key.region; r >= 0 && r < len(rt.regionResident) {
		rt.regionResident[r].Add(1)
		rt.regionBytes[r].Add(e.bytes)
	}
	rt.notePeak()
}

// dropLocked removes a resident entry without counting an eviction
// (invalidation and stale-generation cleanup).
func (sh *shard) dropLocked(rt *Runtime, e *entry) {
	if sh.entries[e.key] == e {
		delete(sh.entries, e.key)
	}
	if e.slot < 0 {
		return
	}
	last := len(sh.ring) - 1
	sh.ring[e.slot] = sh.ring[last]
	sh.ring[e.slot].slot = e.slot
	sh.ring = sh.ring[:last]
	if sh.hand > last {
		sh.hand = 0
	}
	e.slot = -1
	rt.resident.Add(-1)
	rt.residentBytes.Add(-e.bytes)
	if r := e.key.region; r >= 0 && r < len(rt.regionResident) {
		rt.regionResident[r].Add(-1)
		rt.regionBytes[r].Add(-e.bytes)
	}
}

// evictOneLocked runs the CLOCK hand over the shard's ring and evicts one
// resident entry, honouring reference bits (an entry hit since the hand
// last passed gets a second chance). region restricts candidates to one
// region (-1 = any). Reports whether anything was evicted; false only if
// the ring holds no candidate at all.
func (sh *shard) evictOneLocked(rt *Runtime, region int) bool {
	n := len(sh.ring)
	if n == 0 {
		return false
	}
	// Two sweeps suffice: the first clears every candidate's reference
	// bit, so the second must find a victim (if any candidate exists).
	for scanned := 0; scanned < 2*n; scanned++ {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		e := sh.ring[sh.hand]
		if region >= 0 && e.key.region != region {
			sh.hand++
			continue
		}
		if e.ref {
			e.ref = false
			sh.hand++
			continue
		}
		sh.dropLocked(rt, e)
		sh.evictions++
		sh.evicted.add(e.key)
		if rt.Opts.Cache.ChurnStats {
			sh.churnLocked(e.key.region).Evictions++
		}
		return true
	}
	return false
}

// reserveEntry takes one resident slot for an entry about to be published
// into sh, evicting while the shared cache is at MaxEntries: from sh's
// ring first, then from each sibling in shard order. The caller must hold
// no shard lock. It reports false, reserving nothing, when the cache is
// full and no shard holds an evictable entry (every slot is reserved by a
// publish in progress); the caller then does not retain its entry. A
// reservation is either consumed by publishLocked or returned with
// releaseEntry.
func (rt *Runtime) reserveEntry(sh *shard) bool {
	max := int64(rt.Opts.Cache.MaxEntries)
	for {
		n := rt.resident.Load()
		if max <= 0 || n < max {
			if rt.resident.CompareAndSwap(n, n+1) {
				return true
			}
			continue
		}
		if !rt.evictFrom(sh) {
			return false
		}
	}
}

// evictFrom evicts one entry from any region, trying sh and then every
// other shard in order, each under its own (blocking) lock.
func (rt *Runtime) evictFrom(sh *shard) bool {
	sh.mu.Lock()
	ok := sh.evictOneLocked(rt, -1)
	sh.mu.Unlock()
	for i := 0; !ok && i < len(rt.shards); i++ {
		if o := &rt.shards[i]; o != sh {
			o.mu.Lock()
			ok = o.evictOneLocked(rt, -1)
			o.mu.Unlock()
		}
	}
	return ok
}

// releaseEntry returns an unused reservation.
func (rt *Runtime) releaseEntry() { rt.resident.Add(-1) }

// overBytes reports whether publishing one more entry of `add` bytes would
// leave the shared cache above the global byte cap.
func (rt *Runtime) overBytes(add int64) bool {
	max := rt.Opts.Cache.MaxCodeBytes
	return max > 0 && rt.residentBytes.Load()+add > max
}

func (rt *Runtime) regionOverEntries(region int) bool {
	max := rt.Opts.Cache.MaxEntriesPerRegion
	return max > 0 && region >= 0 && region < len(rt.regionResident) &&
		rt.regionResident[region].Load() >= int64(max)
}

func (rt *Runtime) regionOverBytes(region int, add int64) bool {
	max := rt.Opts.Cache.MaxCodeBytesPerRegion
	return max > 0 && region >= 0 && region < len(rt.regionBytes) &&
		rt.regionBytes[region].Load()+add > max
}

// makeRoomLocked evicts until the byte and per-region caps admit one more
// entry of `bytes` code bytes for region (the entry cap was settled by
// reserveEntry). It runs with sh.mu held (the publishing shard) and
// prefers local evictions; when the local ring cannot help it steals one
// eviction at a time from sibling shards via TryLock (never blocking, so
// never deadlocking). Per-region caps are enforced locally here and
// cross-shard by reclaim after publish.
func (rt *Runtime) makeRoomLocked(sh *shard, region int, bytes int64) {
	for rt.overBytes(bytes) {
		if sh.evictOneLocked(rt, -1) {
			continue
		}
		if !rt.stealEviction(sh, -1) {
			return // every other shard busy or empty; reclaim will catch up
		}
	}
	for rt.regionOverEntries(region) || rt.regionOverBytes(region, bytes) {
		if sh.evictOneLocked(rt, region) {
			continue
		}
		if !rt.stealEviction(sh, region) {
			return
		}
	}
}

// stealEviction evicts one entry from some shard other than sh, using
// TryLock so a publisher holding its own shard lock can never deadlock
// against another publisher doing the same.
func (rt *Runtime) stealEviction(sh *shard, region int) bool {
	for i := range rt.shards {
		o := &rt.shards[i]
		if o == sh || !o.mu.TryLock() {
			continue
		}
		ok := o.evictOneLocked(rt, region)
		o.mu.Unlock()
		if ok {
			return true
		}
	}
	return false
}

// reclaim restores the byte and per-region caps after a publish, sweeping
// shards with full locks (the caller holds none). It bounds the transient
// overshoot left when makeRoomLocked could not evict — the publishing
// shard's ring was empty and every sibling was mid-publish — to the
// duration of those publishes.
func (rt *Runtime) reclaim(region int) {
	c := &rt.Opts.Cache
	if c.MaxCodeBytes == 0 && c.MaxEntriesPerRegion == 0 && c.MaxCodeBytesPerRegion == 0 {
		return
	}
	for pass := 0; pass < 2*len(rt.shards); pass++ {
		overGlobal := rt.overBytes(0)
		overRegion := rt.regionOverBytes(region, 0) ||
			(c.MaxEntriesPerRegion > 0 && region >= 0 && region < len(rt.regionResident) &&
				rt.regionResident[region].Load() > int64(c.MaxEntriesPerRegion))
		if !overGlobal && !overRegion {
			return
		}
		target := -1
		if overRegion && !overGlobal {
			target = region
		}
		sh := &rt.shards[pass%len(rt.shards)]
		sh.mu.Lock()
		sh.evictOneLocked(rt, target)
		sh.mu.Unlock()
	}
}

// notePeak records a new resident-entry high-water mark.
func (rt *Runtime) notePeak() {
	n := rt.resident.Load()
	for {
		p := rt.peakEntries.Load()
		if n <= p || rt.peakEntries.CompareAndSwap(p, n) {
			return
		}
	}
}
