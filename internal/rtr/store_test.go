package rtr

import (
	"fmt"
	"testing"

	"dyncc/internal/segio"
	"dyncc/internal/tmpl"
	"dyncc/internal/vm"
)

// storeTestRuntime builds a runtime with a MemStore-backed level-0 tier
// and enough program scaffolding (one parent segment per region) for the
// digest fingerprint and parent relinking to work.
func storeTestRuntime(store segio.Store, regions int) *Runtime {
	parent := &vm.Segment{Name: "f", Code: []vm.Inst{{Op: vm.RET}}}
	prog := &vm.Program{Segs: []*vm.Segment{parent}}
	rs := make([]*tmpl.Region, regions)
	for i := range rs {
		rs[i] = &tmpl.Region{Name: fmt.Sprintf("r%d", i), FuncID: 0,
			KeyRegs: []vm.Reg{1}, Shareable: true}
	}
	return New(prog, rs, Options{Cache: CacheOptions{Store: store}})
}

// storedSeg is a minimal but non-trivial segment to persist.
func storedSeg() *vm.Segment {
	return &vm.Segment{
		Name: "r0.stitched", Region: 0, Stitched: true,
		Code:   []vm.Inst{{Op: vm.LI, Rd: 2, Imm: 42}, {Op: vm.RET, Rs: 2}},
		Consts: []int64{7},
	}
}

// plant persists seg in rt's store under (region, gen, key), the way the
// background publisher would.
func plant(t *testing.T, rt *Runtime, region int, gen uint64, key string, seg *vm.Segment) segio.Digest {
	t.Helper()
	d := rt.storeDigest(region, gen, key)
	if err := rt.Opts.Cache.Store.Put(d, segio.Encode(seg)); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestStoreLoadHitMissError(t *testing.T) {
	store := segio.NewMemStore()
	rt := storeTestRuntime(store, 1)
	defer rt.Close()

	// Miss on an empty store.
	if seg := rt.storeLoad(0, 0, "k"); seg != nil {
		t.Fatal("load from empty store returned a segment")
	}
	// Hit after planting; the parent must be relinked to this runtime's
	// program and the bytes identical to what was persisted.
	want := storedSeg()
	plant(t, rt, 0, 0, "k", want)
	got := rt.storeLoad(0, 0, "k")
	if got == nil {
		t.Fatal("planted segment not served")
	}
	if got.Parent != rt.Prog.Segs[0] {
		t.Error("loaded segment's parent not relinked")
	}
	if string(segio.Encode(got)) != string(segio.Encode(want)) {
		t.Error("loaded segment is not byte-identical to the persisted one")
	}
	// Corrupt blob: an error, and the entry is deleted so it cannot keep
	// failing.
	d := rt.storeDigest(0, 0, "bad")
	if err := store.Put(d, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	if seg := rt.storeLoad(0, 0, "bad"); seg != nil {
		t.Fatal("corrupt blob decoded")
	}
	rt.WaitIdle()
	if data, _ := store.Get(d); data != nil {
		t.Error("corrupt store entry was not deleted")
	}

	cs := rt.CacheStats()
	if cs.StoreHits != 1 || cs.StoreMisses != 1 || cs.StoreErrors != 1 {
		t.Errorf("store counters: hits=%d misses=%d errors=%d, want 1/1/1",
			cs.StoreHits, cs.StoreMisses, cs.StoreErrors)
	}
	if cs.StoreHits+cs.StoreMisses+cs.StoreErrors != 3 {
		t.Errorf("3 consults must classify exactly once each: %+v", cs)
	}
}

func TestStorePutRoundTrip(t *testing.T) {
	store := segio.NewMemStore()
	rt := storeTestRuntime(store, 1)
	defer rt.Close()

	seg := storedSeg()
	rt.storePut(0, 0, "k", seg)
	rt.WaitIdle()
	if store.Len() != 1 {
		t.Fatalf("store holds %d entries, want 1", store.Len())
	}
	got := rt.storeLoad(0, 0, "k")
	if got == nil || string(segio.Encode(got)) != string(segio.Encode(seg)) {
		t.Fatal("published segment does not round-trip byte-identically")
	}
	if cs := rt.CacheStats(); cs.StorePuts != 1 {
		t.Errorf("StorePuts = %d, want 1", cs.StorePuts)
	}
}

// TestStoreGenerationOrphans pins the invalidation contract: the digest
// includes the generation, so a bump makes every persisted digest of the
// old generation unreachable — never served, never resurrected.
func TestStoreGenerationOrphans(t *testing.T) {
	store := segio.NewMemStore()
	rt := storeTestRuntime(store, 1)
	defer rt.Close()

	plant(t, rt, 0, 0, "k", storedSeg())
	rt.gens[0].Add(1)
	if seg := rt.storeLoad(0, rt.gens[0].Load(), "k"); seg != nil {
		t.Fatal("old-generation blob served after a generation bump")
	}
	if cs := rt.CacheStats(); cs.StoreMisses != 1 {
		t.Errorf("StoreMisses = %d, want 1", cs.StoreMisses)
	}
}

// TestInvalidateKeyDeletesPersisted: generation orphaning is process-local
// (counters restart at zero), so InvalidateKey must also delete the
// persisted digest of the invalidated specialization.
func TestInvalidateKeyDeletesPersisted(t *testing.T) {
	store := segio.NewMemStore()
	rt := storeTestRuntime(store, 1)
	defer rt.Close()

	key := encodeKey([]int64{3})
	d := plant(t, rt, 0, 0, key, storedSeg())
	addCompleted(rt, 0, key, storedSeg())

	rt.InvalidateKey(0, 3)
	rt.WaitIdle()
	if data, _ := store.Get(d); data != nil {
		t.Fatal("invalidated key's persisted blob survived")
	}
}

// TestInvalidateDeletesResidentDigests: a region-wide Invalidate deletes
// the persisted digests of every resident entry it sweeps.
func TestInvalidateDeletesResidentDigests(t *testing.T) {
	store := segio.NewMemStore()
	rt := storeTestRuntime(store, 2)
	defer rt.Close()

	var dropped []segio.Digest
	for i := 0; i < 4; i++ {
		key := encodeKey([]int64{int64(i)})
		dropped = append(dropped, plant(t, rt, 0, 0, key, storedSeg()))
		addCompleted(rt, 0, key, storedSeg())
	}
	keep := plant(t, rt, 1, 0, "other", storedSeg())
	addCompleted(rt, 1, "other", storedSeg())

	rt.Invalidate(0)
	rt.WaitIdle()
	for i, d := range dropped {
		if data, _ := store.Get(d); data != nil {
			t.Errorf("region-0 blob %d survived Invalidate", i)
		}
	}
	if data, _ := store.Get(keep); data == nil {
		t.Error("Invalidate(0) deleted a region-1 blob")
	}
}

// TestInvalidateDeletesPutAcrossSiblingInvalidation: a stitch whose claim
// straddles another key's InvalidateKey is published under the refreshed
// generation, so it must be persisted under that generation too, or a
// later Invalidate of the region (or InvalidateKey of the key) deletes a
// digest nothing was stored at and the blob survives for a restarted
// process to serve.
func TestInvalidateDeletesPutAcrossSiblingInvalidation(t *testing.T) {
	for name, invalidate := range map[string]func(*Runtime){
		"region": func(rt *Runtime) { rt.Invalidate(0) },
		"key":    func(rt *Runtime) { rt.InvalidateKey(0, 5) },
	} {
		t.Run(name, func(t *testing.T) {
			store := segio.NewMemStore()
			rt, m := producerRuntime(CacheOptions{Store: store})
			defer rt.Close()
			key := encodeKey([]int64{5})

			e, won, gen := rt.claim(0, key)
			if !won {
				t.Fatal("fresh key not claimed")
			}
			rt.InvalidateKey(0, 6) // a sibling: the region moves on, the claim stays live
			p, err := rt.produce(m, fixtureTbl, 0, key, e, gen)
			if err != nil || !p.stitched || !p.kept {
				t.Fatalf("stitch across a sibling invalidation: stitched=%v kept=%v err=%v",
					p.stitched, p.kept, err)
			}
			rt.WaitIdle()
			if store.Len() != 1 {
				t.Fatalf("store holds %d blobs after the put, want 1", store.Len())
			}

			invalidate(rt)
			rt.WaitIdle()
			if store.Len() != 0 {
				t.Fatal("the invalidated specialization's persisted blob survived")
			}
		})
	}
}

// TestInvalidateDeletesResidentAcrossSiblingInvalidation: a published
// entry stays resident when InvalidateKey sweeps a sibling, which moves
// the entry's generation snapshot on while its blob stays under the
// generation it was put (or adopted) at. A later Invalidate of the region,
// or InvalidateKey of the entry's own key, must still delete that blob.
func TestInvalidateDeletesResidentAcrossSiblingInvalidation(t *testing.T) {
	for name, invalidate := range map[string]func(*Runtime){
		"region": func(rt *Runtime) { rt.Invalidate(0) },
		"key":    func(rt *Runtime) { rt.InvalidateKey(0, 5) },
	} {
		for _, adopt := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/adopt=%v", name, adopt), func(t *testing.T) {
				store := segio.NewMemStore()
				key := encodeKey([]int64{5})
				if adopt {
					// A first process stitches and puts the blob at
					// generation 0; this one adopts it.
					rt0, m0 := producerRuntime(CacheOptions{Store: store})
					e, _, gen := rt0.claim(0, key)
					if _, err := rt0.produce(m0, fixtureTbl, 0, key, e, gen); err != nil {
						t.Fatal(err)
					}
					rt0.Close()
				}
				rt, m := producerRuntime(CacheOptions{Store: store})
				defer rt.Close()
				e, _, gen := rt.claim(0, key)
				p, err := rt.produce(m, fixtureTbl, 0, key, e, gen)
				if err != nil || !p.kept || p.stitched == adopt {
					t.Fatalf("publish: stitched=%v kept=%v err=%v", p.stitched, p.kept, err)
				}
				rt.WaitIdle()
				if store.Len() != 1 {
					t.Fatalf("store holds %d blobs after the publish, want 1", store.Len())
				}

				rt.InvalidateKey(0, 6) // a sibling: the entry stays resident
				if rt.lookupShared(0, key) != p.seg {
					t.Fatal("a sibling's invalidation dropped the resident entry")
				}
				invalidate(rt)
				rt.WaitIdle()
				if store.Len() != 0 {
					t.Fatal("the invalidated specialization's persisted blob survived")
				}
			})
		}
	}
}

// TestAdoptStoredPublish: a store hit under a won claim is published with
// the same generation fence as a stitch, without counting one, and is then
// served by ordinary lookups. The store is consulted under the claim-time
// generation, so an invalidation during the load is caught by the fence.
func TestAdoptStoredPublish(t *testing.T) {
	rt := storeTestRuntime(segio.NewMemStore(), 1)
	defer rt.Close()

	plant(t, rt, 0, 0, "k", storedSeg())
	e, won, gen := rt.claim(0, "k")
	if !won {
		t.Fatal("fresh key not claimed")
	}
	p, err := rt.produce(nil, 0, 0, "k", e, gen)
	if err != nil || p.stitched || !p.kept {
		t.Fatalf("adoption: stitched=%v kept=%v err=%v, want a kept adoption", p.stitched, p.kept, err)
	}
	if rt.lookupShared(0, "k") != p.seg {
		t.Fatal("adopted segment not served by lookup")
	}
	if got := rt.regionResident[0].Load(); got != 1 {
		t.Errorf("regionResident = %d, want 1", got)
	}
	// No stitch happened: the Stitches counter must not move.
	if cs := rt.CacheStats(); cs.Stitches != 0 || cs.StoreHits != 1 {
		t.Errorf("adoption counted as a stitch or not as a store hit: %+v", cs)
	}

	// Invalidated mid-load: the segment is still returned to this
	// attempt's waiters but never retained.
	plant(t, rt, 0, 0, "k2", storedSeg())
	e2, _, gen2 := rt.claim(0, "k2")
	rt.gens[0].Add(1)
	p, err = rt.produce(nil, 0, 0, "k2", e2, gen2)
	if err != nil || p.seg == nil || p.kept {
		t.Fatalf("stale-generation adoption: seg=%v kept=%v err=%v", p.seg != nil, p.kept, err)
	}
	<-e2.done
	if e2.seg != p.seg {
		t.Fatal("waiters of the declined adoption did not get its segment")
	}
	if rt.lookupShared(0, "k2") != nil {
		t.Fatal("stale-generation segment served")
	}
}

// TestStoreQueueFullDrops: a full publish queue drops the operation and
// counts a StoreError instead of blocking the stitch path.
func TestStoreQueueFullDrops(t *testing.T) {
	rt := storeTestRuntime(segio.NewMemStore(), 1)
	defer rt.Close()
	// Burn the once so the publisher goroutine never starts draining, then
	// overfill the queue.
	rt.storeOnce.Do(func() {})
	qcap := cap(rt.storeOps)
	for i := 0; i <= qcap; i++ {
		rt.storePut(0, 0, fmt.Sprintf("k%d", i), storedSeg())
	}
	if cs := rt.CacheStats(); cs.StoreErrors != 1 {
		t.Errorf("StoreErrors = %d, want 1 dropped op", cs.StoreErrors)
	}
}

// TestStoreCloseDrains: Close executes the still-queued puts (a clean
// shutdown persists everything accepted) and leaves no in-flight count.
func TestStoreCloseDrains(t *testing.T) {
	store := segio.NewMemStore()
	rt := storeTestRuntime(store, 1)
	rt.storeOnce.Do(func() {}) // publisher never runs; Close must drain
	for i := 0; i < 5; i++ {
		rt.storePut(0, 0, fmt.Sprintf("k%d", i), storedSeg())
	}
	rt.Close()
	if store.Len() != 5 {
		t.Fatalf("store holds %d entries after Close, want 5", store.Len())
	}
	if n := rt.storeInflight.Load(); n != 0 {
		t.Errorf("storeInflight = %d after Close", n)
	}
	// Post-close operations are silently ignored, never enqueued.
	rt.storePut(0, 0, "late", storedSeg())
	if store.Len() != 5 {
		t.Error("post-Close put landed")
	}
	rt.Close() // idempotent
}

// TestFingerprintSensitivity: the digest must change with anything the
// stitched output could depend on — and nothing else.
func TestFingerprintSensitivity(t *testing.T) {
	store := segio.NewMemStore()
	a := storeTestRuntime(store, 1)
	defer a.Close()
	b := storeTestRuntime(store, 1)
	defer b.Close()
	if a.storeDigest(0, 0, "k") != b.storeDigest(0, 0, "k") {
		t.Fatal("identical runtimes derive different digests (no sharing possible)")
	}
	if a.storeDigest(0, 0, "k") == a.storeDigest(0, 0, "j") {
		t.Error("digest ignores the key")
	}
	if a.storeDigest(0, 0, "k") == a.storeDigest(0, 1, "k") {
		t.Error("digest ignores the generation")
	}
	c := storeTestRuntime(store, 1)
	defer c.Close()
	c.Opts.Stitcher.NoFuse = true
	if a.storeDigest(0, 0, "k") == c.storeDigest(0, 0, "k") {
		t.Error("digest ignores the stitcher options")
	}
	d := storeTestRuntime(store, 1)
	defer d.Close()
	d.Regions[0].TableSize = 99
	if a.storeDigest(0, 0, "k") == d.storeDigest(0, 0, "k") {
		t.Error("digest ignores the region templates")
	}
}

// TestEvictLogWindowAtCapacity is the regression test for the satellite
// fix: interleaved evict/restitch churn must keep the log's effective
// window at evictLogSize. The buggy remove left permanent dead holes
// (region -1 slots) that counted against the capacity, so every
// remove shrank the live window for the rest of the shard's life.
func TestEvictLogWindowAtCapacity(t *testing.T) {
	var l evictLog
	key := func(i int) cacheKey { return cacheKey{region: 0, key: fmt.Sprintf("k%d", i)} }

	for i := 0; i < evictLogSize; i++ {
		l.add(key(i))
	}
	// Restitch half the window (every other key)...
	for i := 0; i < evictLogSize; i += 2 {
		if !l.remove(key(i)) {
			t.Fatalf("key %d missing from full log", i)
		}
	}
	// ...then evict that many fresh keys again.
	for i := 0; i < evictLogSize/2; i++ {
		l.add(cacheKey{region: 0, key: fmt.Sprintf("fresh%d", i)})
	}

	if len(l.keys) != evictLogSize || len(l.idx) != evictLogSize {
		t.Fatalf("window = %d keys / %d indexed, want %d (dead holes?)",
			len(l.keys), len(l.idx), evictLogSize)
	}
	// Every surviving original and every fresh key must still be detected
	// as a restitch — nothing live was displaced by a hole.
	for i := 1; i < evictLogSize; i += 2 {
		if _, ok := l.idx[key(i)]; !ok {
			t.Fatalf("surviving key %d fell out of the window", i)
		}
	}
	for i := 0; i < evictLogSize/2; i++ {
		if _, ok := l.idx[cacheKey{region: 0, key: fmt.Sprintf("fresh%d", i)}]; !ok {
			t.Fatalf("fresh key %d fell out of the window", i)
		}
	}

	// Sustained churn: cycles of add/remove never degrade the window.
	for round := 0; round < 10; round++ {
		for i := 0; i < 32; i++ {
			k := cacheKey{region: 1, key: fmt.Sprintf("r%dc%d", round, i)}
			l.add(k)
			if i%2 == 0 {
				l.remove(k)
			}
		}
	}
	if len(l.keys) != len(l.idx) {
		t.Fatalf("keys (%d) and index (%d) diverged", len(l.keys), len(l.idx))
	}
	if len(l.keys) > evictLogSize {
		t.Fatalf("log overgrew to %d", len(l.keys))
	}
	for _, k := range l.keys {
		if k.region == -1 {
			t.Fatal("dead hole present in the log")
		}
		if _, ok := l.idx[k]; !ok {
			t.Fatal("ring key missing from index")
		}
	}
}

// TestNegativeRegionAccounting is the regression test for the satellite
// guard fix: an entry whose key carries the region -1 sentinel must not
// panic the per-region resident accounting on any of the four sites.
func TestNegativeRegionAccounting(t *testing.T) {
	rt := testRuntime(CacheOptions{Shards: 1, MaxEntriesPerRegion: 1,
		MaxCodeBytesPerRegion: 1 << 20}, 1)
	sh := &rt.shards[0]
	ck := cacheKey{region: -1, key: "x"}
	e := &entry{key: ck, done: make(chan struct{}), seg: &vm.Segment{},
		bytes: 64, slot: -1}
	close(e.done)

	rt.reserveEntry(sh)
	sh.mu.Lock()
	sh.mapLocked(ck, e)
	sh.publishLocked(rt, e) // site 1: publish
	sh.mu.Unlock()
	if rt.resident.Load() != 1 {
		t.Fatalf("resident = %d, want 1", rt.resident.Load())
	}

	// Sites 3 and 4: the per-region cap predicates.
	if rt.regionOverEntries(-1) {
		t.Error("regionOverEntries(-1) reported over-cap")
	}
	if rt.regionOverBytes(-1, 128) {
		t.Error("regionOverBytes(-1) reported over-cap")
	}
	sh.mu.Lock()
	rt.makeRoomLocked(sh, -1, 64) // exercises both predicates with sh held
	sh.mu.Unlock()
	rt.reclaim(-1)

	sh.mu.Lock()
	sh.dropLocked(rt, e) // site 2: drop
	sh.mu.Unlock()
	if rt.resident.Load() != 0 || rt.residentBytes.Load() != 0 {
		t.Errorf("accounting leaked: resident=%d bytes=%d",
			rt.resident.Load(), rt.residentBytes.Load())
	}
}
