package rtr_test

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dyncc/internal/core"
	"dyncc/internal/rtr"
)

// checkLookupInvariant asserts the accounting invariant that every shared
// lookup is classified exactly once. FallbackRuns is deliberately absent:
// it counts executions on the generic tier, not lookups.
func checkLookupInvariant(t *testing.T, cs rtr.CacheStats) {
	t.Helper()
	if cs.Lookups != cs.SharedHits+cs.Waits+cs.FailedHits+cs.Misses {
		t.Errorf("lookup invariant violated: %d lookups != %d hits + %d waits + %d failed + %d misses",
			cs.Lookups, cs.SharedHits, cs.Waits, cs.FailedHits, cs.Misses)
	}
}

// With AsyncStitch on, cold keys must run on the generic fallback tier
// (correct results, no inline stitch) while background workers stitch; once
// the pool quiesces, every distinct key has been stitched exactly once and
// the machines have adopted the specialized code without ever compiling.
func TestAsyncStitchCorrectness(t *testing.T) {
	keys := []int64{2, 3, 5, 7, 11, 13}
	xs := []int64{1, -4, 9, 1000}
	for _, merged := range []bool{false, true} {
		name := "two-pass"
		if merged {
			name = "merged"
		}
		t.Run(name, func(t *testing.T) {
			c, err := core.Compile(keyedSrc, core.Config{
				Dynamic: true, Optimize: true, MergedStitch: merged,
				Cache: rtr.CacheOptions{AsyncStitch: true}})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Runtime.Close()
			if c.Runtime.KeySetup[0] == nil {
				t.Fatal("no KeySetup installed for the shareable keyed region")
			}
			m := c.NewMachine(0)
			for round := 0; round < 4; round++ {
				for _, s := range keys {
					for _, x := range xs {
						got, err := m.Call("scale", s, x)
						if err != nil {
							t.Fatal(err)
						}
						if got != s*x {
							t.Fatalf("scale(%d,%d) = %d, want %d", s, x, got, s*x)
						}
					}
				}
			}
			c.Runtime.WaitIdle()
			// Re-drive everything warm: the published specializations must
			// now serve every call.
			for _, s := range keys {
				for _, x := range xs {
					if got, err := m.Call("scale", s, x); err != nil || got != s*x {
						t.Fatalf("warm scale(%d,%d) = %d, %v", s, x, got, err)
					}
				}
			}
			if got := m.Region(0).Compiles; got != 0 {
				t.Errorf("machine compiles: %d, want 0 (stitching is the workers' job)", got)
			}
			cs := c.Runtime.CacheStats()
			if cs.FallbackRuns == 0 {
				t.Error("no executions on the generic fallback tier")
			}
			if cs.AsyncStitches != uint64(len(keys)) {
				t.Errorf("async stitches: %d, want %d (one per distinct key)",
					cs.AsyncStitches, len(keys))
			}
			if cs.Stitches != uint64(len(keys)) {
				t.Errorf("stitches: %d, want %d", cs.Stitches, len(keys))
			}
			if cs.QueueRejects != 0 {
				t.Errorf("queue rejects: %d, want 0 (queue far larger than key set)", cs.QueueRejects)
			}
			checkLookupInvariant(t, cs)
			if c.Runtime.Stats(0).InstsStitched == 0 {
				t.Error("worker stitch stats not aggregated")
			}
			if cs.PromoteQuantile(0.99) == 0 {
				t.Error("promote-latency histogram empty despite async stitches")
			}
		})
	}
}

// The very next call after a background stitch publishes must take the warm
// path: the shared lookup adopts the segment into the machine's level-2
// map, after which DYNENTER dispatch is a zero-allocation hit.
func TestAsyncPromotionNextCall(t *testing.T) {
	c, err := core.Compile(keyedSrc, core.Config{Dynamic: true, Optimize: true,
		Cache: rtr.CacheOptions{AsyncStitch: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Runtime.Close()
	m := c.NewMachine(0)
	if got, err := m.Call("scale", 7, 3); err != nil || got != 21 {
		t.Fatalf("cold call: %d, %v", got, err)
	}
	c.Runtime.WaitIdle()
	if c.Runtime.Peek(0, 7) == nil {
		t.Fatal("background stitch did not publish")
	}
	if got, err := m.Call("scale", 7, 5); err != nil || got != 35 {
		t.Fatalf("post-publish call: %d, %v", got, err)
	}
	cs := c.Runtime.CacheStats()
	if cs.FallbackRuns != 1 {
		t.Errorf("fallback runs: %d, want 1 (only the scheduling call)", cs.FallbackRuns)
	}
	if cs.SharedHits != 1 {
		t.Errorf("shared hits: %d, want 1 (the adopting lookup)", cs.SharedHits)
	}
	// The adopted segment is in the level-2 map now: warm dispatch must not
	// allocate, exactly like the inline path (TestDynEnterZeroAlloc).
	keyReg := c.Output.Regions[0].KeyRegs[0]
	allocs := testing.AllocsPerRun(1000, func() {
		m.Regs[keyReg] = 7
		seg, err := m.OnDynEnter(m, 0)
		if err != nil || seg == nil {
			t.Fatalf("warm dispatch missed: seg=%v err=%v", seg, err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm DYNENTER dispatch allocates %.1f/op, want 0", allocs)
	}
}

// Property: for any key, the segment published by a background worker is
// byte-identical to the one the inline (synchronous) path stitches — the
// worker re-derives the table from the key bytes, and a Shareable region's
// stitched output is a pure function of those bytes.
func TestAsyncStitchByteIdentical(t *testing.T) {
	keys := []int64{2, 3, 5, 7, 11, 13, 127, -9}
	async, err := core.Compile(keyedSrc, core.Config{Dynamic: true, Optimize: true,
		Cache: rtr.CacheOptions{AsyncStitch: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer async.Runtime.Close()
	inline, err := core.Compile(keyedSrc, core.Config{Dynamic: true, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	ma, mi := async.NewMachine(0), inline.NewMachine(0)
	for _, s := range keys {
		if _, err := ma.Call("scale", s, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := mi.Call("scale", s, 1); err != nil {
			t.Fatal(err)
		}
	}
	async.Runtime.WaitIdle()
	for _, s := range keys {
		a, b := async.Runtime.Peek(0, s), inline.Runtime.Peek(0, s)
		if a == nil || b == nil {
			t.Fatalf("key %d: missing published segment (async=%v inline=%v)", s, a != nil, b != nil)
		}
		if !reflect.DeepEqual(a.Code, b.Code) {
			t.Errorf("key %d: async code differs from inline stitch", s)
		}
		if !reflect.DeepEqual(a.Consts, b.Consts) {
			t.Errorf("key %d: async constant table differs", s)
		}
		if !reflect.DeepEqual(a.JumpTables, b.JumpTables) {
			t.Errorf("key %d: async jump tables differ", s)
		}
	}
}

// Background jobs recycle key set-up arenas. A reused arena must be
// cleared before set-up runs in it, so set-up into a dirty arena yields
// exactly the image a fresh one does, in the arena's own memory.
func TestKeySetupReusesDirtyArena(t *testing.T) {
	c, err := core.Compile(keyedSrc, core.Config{Dynamic: true, Optimize: true,
		Cache: rtr.CacheOptions{AsyncStitch: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Runtime.Close()
	setup := c.Runtime.KeySetup[0]
	if setup == nil {
		t.Fatal("no KeySetup installed for the shareable keyed region")
	}
	fresh, tbl, err := setup([]int64{7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dirty := make([]int64, 2*len(fresh))
	for i := range dirty {
		dirty[i] = 0x5a5a5a5a
	}
	reused, tbl2, err := setup([]int64{7}, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if &reused[0] != &dirty[0] {
		t.Error("set-up did not run in the large enough arena it was handed")
	}
	if tbl2 != tbl || !reflect.DeepEqual(reused, fresh) {
		t.Error("set-up in a reused arena differs from set-up in a fresh one")
	}
}

// blockKeySetup wraps a region's key set-up function so the background
// worker blocks until released — a deterministic handle on the in-flight
// window for the backpressure and invalidation tests below.
func blockKeySetup(c *core.Compiled, region int) (release func()) {
	orig := c.Runtime.KeySetup[region]
	gate := make(chan struct{})
	c.Runtime.KeySetup[region] = func(keyVals, arena []int64) ([]int64, int64, error) {
		<-gate
		return orig(keyVals, arena)
	}
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

// A full queue must reject new cold keys (backpressure) rather than block
// the caller: the claim is withdrawn, the call completes on the fallback
// tier, and a later miss reschedules the key.
func TestAsyncQueueBackpressure(t *testing.T) {
	c, err := core.Compile(keyedSrc, core.Config{Dynamic: true, Optimize: true,
		Cache: rtr.CacheOptions{AsyncStitch: true, StitchWorkers: 1, StitchQueue: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Runtime.Close()
	release := blockKeySetup(c, 0)
	defer release()

	m := c.NewMachine(0)
	keys := []int64{2, 3, 5}
	// With the single worker blocked inside the first key's set-up and a
	// queue of one, at most two of these three cold keys can be accepted
	// (one running, one queued); at least one must be rejected. Every call
	// still completes correctly on the fallback tier.
	for _, s := range keys {
		if got, err := m.Call("scale", s, 10); err != nil || got != s*10 {
			t.Fatalf("scale(%d,10) = %d, %v", s, got, err)
		}
	}
	cs := c.Runtime.CacheStats()
	if cs.QueueRejects == 0 {
		t.Error("expected at least one queue reject with a blocked worker and queue of 1")
	}
	if cs.FallbackRuns != uint64(len(keys)) {
		t.Errorf("fallback runs: %d, want %d (every cold call)", cs.FallbackRuns, len(keys))
	}

	release()
	c.Runtime.WaitIdle()
	// Rejected keys were withdrawn, not wedged: another pass reschedules
	// them and eventually every key publishes.
	for pass := 0; pass < 100; pass++ {
		done := true
		for _, s := range keys {
			if got, err := m.Call("scale", s, 10); err != nil || got != s*10 {
				t.Fatalf("scale(%d,10) = %d, %v", s, got, err)
			}
			if c.Runtime.Peek(0, s) == nil {
				done = false
			}
		}
		c.Runtime.WaitIdle()
		if done {
			break
		}
	}
	for _, s := range keys {
		if c.Runtime.Peek(0, s) == nil {
			t.Errorf("key %d never published after rejection", s)
		}
	}
	checkLookupInvariant(t, c.Runtime.CacheStats())
}

// A stitch in flight when its key is invalidated must be discarded, never
// published: the worker's result belongs to a dead generation.
func TestAsyncInFlightInvalidationDiscards(t *testing.T) {
	c, err := core.Compile(keyedSrc, core.Config{Dynamic: true, Optimize: true,
		Cache: rtr.CacheOptions{AsyncStitch: true, StitchWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Runtime.Close()
	release := blockKeySetup(c, 0)
	defer release()

	m := c.NewMachine(0)
	if got, err := m.Call("scale", 7, 3); err != nil || got != 21 {
		t.Fatalf("cold call: %d, %v", got, err)
	}
	// The worker is blocked inside key 7's set-up. Invalidate the key now:
	// the in-flight entry is unmapped, so the publish must be declined.
	c.Runtime.InvalidateKey(0, 7)
	release()
	c.Runtime.WaitIdle()
	if c.Runtime.Peek(0, 7) != nil {
		t.Fatal("invalidated in-flight stitch was published")
	}
	cs := c.Runtime.CacheStats()
	if cs.AsyncDiscards != 1 {
		t.Errorf("async discards: %d, want 1", cs.AsyncDiscards)
	}
	// The key is re-schedulable: the next call falls back again and the
	// fresh-generation stitch publishes normally.
	if got, err := m.Call("scale", 7, 5); err != nil || got != 35 {
		t.Fatalf("post-invalidate call: %d, %v", got, err)
	}
	c.Runtime.WaitIdle()
	if c.Runtime.Peek(0, 7) == nil {
		t.Error("re-stitch after invalidation never published")
	}
	checkLookupInvariant(t, c.Runtime.CacheStats())
}

// Close must stop the pool without wedging callers: queued stitches are
// failed and withdrawn, and machines keep executing (on the fallback tier)
// with correct results.
func TestAsyncCloseKeepsMachinesRunning(t *testing.T) {
	c, err := core.Compile(keyedSrc, core.Config{Dynamic: true, Optimize: true,
		Cache: rtr.CacheOptions{AsyncStitch: true, StitchWorkers: 1, StitchQueue: 4}})
	if err != nil {
		t.Fatal(err)
	}
	release := blockKeySetup(c, 0)
	m := c.NewMachine(0)
	for _, s := range []int64{2, 3, 5} {
		if got, err := m.Call("scale", s, 4); err != nil || got != s*4 {
			t.Fatalf("scale(%d,4) = %d, %v", s, got, err)
		}
	}
	c.Runtime.Close()
	release()
	c.Runtime.WaitIdle() // must terminate: queue drained by Close, worker exits
	c.Runtime.Close()    // idempotent
	// Machines attached to a closed runtime still compute correct results.
	for round := 0; round < 3; round++ {
		for _, s := range []int64{2, 3, 5, 7} {
			if got, err := m.Call("scale", s, 9); err != nil || got != s*9 {
				t.Fatalf("post-close scale(%d,9) = %d, %v", s, got, err)
			}
		}
	}
	checkLookupInvariant(t, c.Runtime.CacheStats())
}

// AsyncStitch must not disturb regions that cannot take the async path:
// a non-shareable region (set-up reads machine memory) has no KeySetup and
// stitches inline exactly as before.
func TestAsyncUnshareableStitchesInline(t *testing.T) {
	c, err := core.Compile(pointerSrc, core.Config{Dynamic: true, Optimize: true,
		Cache: rtr.CacheOptions{AsyncStitch: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Runtime.Close()
	if c.Runtime.KeySetup[0] != nil {
		t.Fatal("KeySetup installed for an unshareable region")
	}
	m := c.NewMachine(0)
	a, _ := m.Alloc(1)
	m.Mem[a] = 21
	if v, err := m.Call("first", a); err != nil || v != 42 {
		t.Fatalf("first: %d, %v", v, err)
	}
	if m.Region(0).Compiles != 1 {
		t.Errorf("compiles: %d, want 1 (inline stitch)", m.Region(0).Compiles)
	}
	if cs := c.Runtime.CacheStats(); cs.AsyncStitches != 0 || cs.FallbackRuns != 0 {
		t.Errorf("async counters moved for an ineligible region: %+v", cs)
	}
}

// The -race stress test: concurrent machines driving cold bursts while keys
// are invalidated and the CLOCK evicts under a tight cap, all with
// background stitching on. Every result must be correct, the lookup
// invariant must hold, and the resident count must respect the cap once the
// pool quiesces.
func TestAsyncConcurrentStress(t *testing.T) {
	const (
		goroutines = 8
		rounds     = 12
		capEntries = 8
	)
	keys := make([]int64, 24)
	for i := range keys {
		keys[i] = int64(2 + 3*i)
	}
	xs := []int64{1, -4, 9, 1000}

	c, err := core.Compile(keyedSrc, core.Config{Dynamic: true, Optimize: true,
		Cache: rtr.CacheOptions{
			AsyncStitch: true,
			MaxEntries:  capEntries,
			ChurnStats:  true,
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Runtime.Close()

	machines := make([]*machineDriver, goroutines)
	for i := range machines {
		machines[i] = &machineDriver{m: c.NewMachine(0)}
	}
	var stop atomic.Bool
	var invalidator sync.WaitGroup
	invalidator.Add(1)
	go func() {
		// Concurrent invalidation pressure on a rotating key.
		defer invalidator.Done()
		for i := 0; !stop.Load(); i++ {
			c.Runtime.InvalidateKey(0, keys[i%len(keys)])
		}
	}()
	var wg sync.WaitGroup
	for _, d := range machines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.drive(rounds, keys, xs)
		}()
	}
	wg.Wait()
	stop.Store(true)
	invalidator.Wait()
	c.Runtime.WaitIdle()

	for i, d := range machines {
		if d.err != nil {
			t.Fatalf("machine %d: %v", i, d.err)
		}
	}
	cs := c.Runtime.CacheStats()
	checkLookupInvariant(t, cs)
	if cs.AsyncStitches == 0 {
		t.Error("no background stitches under async stress")
	}
	if cs.FallbackRuns == 0 {
		t.Error("no fallback-tier executions under async stress")
	}
	if cs.EntriesResident > capEntries {
		t.Errorf("resident entries %d exceed cap %d after quiesce", cs.EntriesResident, capEntries)
	}
	if cs.PeakEntries > capEntries {
		t.Errorf("peak entries %d exceed cap %d", cs.PeakEntries, capEntries)
	}
	churn := c.Runtime.Churn()
	if len(churn) == 0 {
		t.Fatal("churn histogram missing")
	}
	var churnStitches uint64
	for _, row := range churn {
		churnStitches += row.Stitches
	}
	if churnStitches != cs.Stitches {
		t.Errorf("churn stitches %d != cache stitches %d", churnStitches, cs.Stitches)
	}
}
