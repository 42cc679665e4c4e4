package rtr

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"dyncc/internal/segio"
	"dyncc/internal/tmpl"
	"dyncc/internal/vm"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// fixtureTbl is the table base of producerRuntime's region in its
// machine's memory; slot 0 holds the one hole value.
const fixtureTbl = 8

// producerRuntime builds a runtime over one hand-built keyed, shareable
// region (one block, one hole, exit to parent pc 9) and a machine whose
// memory holds the region's constants table at fixtureTbl. The key is
// register 20.
func producerRuntime(cache CacheOptions) (*Runtime, *vm.Machine) {
	parent := &vm.Segment{Name: "f", Code: make([]vm.Inst, 12), Region: -1}
	prog := &vm.Program{Segs: []*vm.Segment{parent},
		FuncIndex: map[string]int{"f": 0}, NumRegions: 1}
	r := &tmpl.Region{Index: 0, Name: "t:r0", StitchedName: "t:r0.stitched",
		KeyRegs: []vm.Reg{20}, Shareable: true,
		Blocks: []*tmpl.Block{{
			Code:   []vm.Inst{{Op: vm.ADDI, Rd: 21, Rs: 20}},
			Holes:  []tmpl.Hole{{Pc: 0, Slot: tmpl.SlotRef{LoopID: -1, Slot: 0}}},
			Term:   tmpl.Term{Kind: tmpl.TermJump, Succs: []tmpl.Edge{{Block: -1, ExitPC: 9}}},
			LoopID: -1,
		}},
	}
	rt := New(prog, []*tmpl.Region{r}, Options{Cache: cache})
	m := vm.NewMachine(prog, 1<<10)
	m.Mem[fixtureTbl] = 7
	return rt, m
}

// inFlight returns the mapped, still unfilled entry of (region, key).
func inFlight(t *testing.T, rt *Runtime, region int, key string) *entry {
	t.Helper()
	sh := rt.shardFor(region, key)
	sh.mu.Lock()
	e := sh.entries[cacheKey{region: region, key: key}]
	sh.mu.Unlock()
	if e == nil {
		t.Fatal("no claim for the key")
	}
	select {
	case <-e.done:
		t.Fatal("claim already filled")
	default:
	}
	return e
}

// gateStore is a store whose first Get blocks until release is closed,
// holding the producer that consults it between its claim and its stitch.
type gateStore struct {
	segio.Store
	once             sync.Once
	entered, release chan struct{}
}

func (g *gateStore) Get(d segio.Digest) ([]byte, error) {
	g.once.Do(func() { close(g.entered); <-g.release })
	return g.Store.Get(d)
}

func checkLookups(t *testing.T, cs CacheStats) {
	t.Helper()
	if cs.Lookups != cs.SharedHits+cs.Waits+cs.FailedHits+cs.Misses {
		t.Errorf("lookup invariant broken: %d != %d+%d+%d+%d",
			cs.Lookups, cs.SharedHits, cs.Waits, cs.FailedHits, cs.Misses)
	}
}

// TestFailedStitchAccounting: a failed attempt, whichever producer ran it,
// counts exactly one FailedStitches, hands its error to the claim's
// waiters and retains nothing; the next attempt with a good table
// stitches and publishes.
func TestFailedStitchAccounting(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		gs := &gateStore{Store: segio.NewMemStore(),
			entered: make(chan struct{}), release: make(chan struct{})}
		rt, m := producerRuntime(CacheOptions{Store: gs})
		defer rt.Close()
		var tbl atomic.Int64
		tbl.Store(1 << 40) // out of bounds: the stitcher fails
		rt.SetupFn[0] = func(*vm.Machine) (int64, uint64, error) { return tbl.Load(), 3, nil }
		rt.Attach(m)
		m.Regs[20] = 5
		ks := encodeKey([]int64{5})

		called := make(chan error, 1)
		go func() { _, err := m.OnDynEnter(m, 0); called <- err }()
		<-gs.entered // the winner holds its claim, before its stitch
		e := inFlight(t, rt, 0, ks)
		if rt.lookupShared(0, ks) != nil {
			t.Fatal("in-flight claim served")
		}
		close(gs.release)
		if err := <-called; err == nil {
			t.Fatal("winner with an out-of-bounds table did not fail")
		}
		<-e.done
		if e.err == nil || e.seg != nil {
			t.Fatalf("waiters got seg=%v err=%v, want the winner's error", e.seg, e.err)
		}
		cs := rt.CacheStats()
		if cs.FailedStitches != 1 || cs.Stitches != 0 {
			t.Errorf("FailedStitches=%d Stitches=%d, want 1/0", cs.FailedStitches, cs.Stitches)
		}
		if rt.Peek(0, 5) != nil {
			t.Error("failed stitch left a published segment")
		}

		tbl.Store(fixtureTbl)
		seg, err := m.OnDynEnter(m, 0)
		if err != nil || seg == nil {
			t.Fatalf("retry with a good table: seg=%v err=%v", seg, err)
		}
		if rt.Peek(0, 5) != seg {
			t.Error("retry's segment not published")
		}
		cs = rt.CacheStats()
		if cs.FailedStitches != 1 || cs.Stitches != 1 || m.Region(0).Compiles != 1 {
			t.Errorf("after retry: FailedStitches=%d Stitches=%d Compiles=%d, want 1/1/1",
				cs.FailedStitches, cs.Stitches, m.Region(0).Compiles)
		}
		checkLookups(t, cs)
	})

	t.Run("background", func(t *testing.T) {
		rt, _ := producerRuntime(CacheOptions{AsyncStitch: true, StitchWorkers: 1})
		defer rt.Close()
		entered, release := make(chan struct{}), make(chan struct{})
		errSetup := errors.New("key set-up failed")
		var fail atomic.Bool
		fail.Store(true)
		rt.KeySetup[0] = func(_, _ []int64) ([]int64, int64, error) {
			if fail.Load() {
				close(entered)
				<-release
				return nil, 0, errSetup
			}
			mem := make([]int64, 2*fixtureTbl)
			mem[fixtureTbl] = 7
			return mem, fixtureTbl, nil
		}
		ks := encodeKey([]int64{5})

		rt.schedule(0, ks)
		<-entered // the worker holds the claim, inside key set-up
		e := inFlight(t, rt, 0, ks)
		if rt.lookupShared(0, ks) != nil {
			t.Fatal("in-flight claim served")
		}
		close(release)
		<-e.done
		if !errors.Is(e.err, errSetup) || e.seg != nil {
			t.Fatalf("waiters got seg=%v err=%v, want the set-up error", e.seg, e.err)
		}
		rt.WaitIdle()
		cs := rt.CacheStats()
		if cs.FailedStitches != 1 || cs.Stitches != 0 || cs.AsyncStitches != 0 {
			t.Errorf("FailedStitches=%d Stitches=%d AsyncStitches=%d, want 1/0/0",
				cs.FailedStitches, cs.Stitches, cs.AsyncStitches)
		}
		if rt.Peek(0, 5) != nil || rt.lookupShared(0, ks) != nil {
			t.Error("failed stitch left a published segment")
		}

		fail.Store(false)
		rt.schedule(0, ks)
		rt.WaitIdle()
		seg := rt.Peek(0, 5)
		if seg == nil || rt.lookupShared(0, ks) != seg {
			t.Fatal("retry with a good table not published")
		}
		cs = rt.CacheStats()
		if cs.FailedStitches != 1 || cs.Stitches != 1 || cs.AsyncStitches != 1 {
			t.Errorf("after retry: FailedStitches=%d Stitches=%d AsyncStitches=%d, want 1/1/1",
				cs.FailedStitches, cs.Stitches, cs.AsyncStitches)
		}
		checkLookups(t, cs)
	})
}

// coldStitchAllocBudget is what one shared-cache cold miss (lookup, claim,
// stitch, publish, level-2 install) may allocate: the entry and its latch,
// the stitcher's segment (TestStitchAllocBudget's six) and the level-2
// slot. On a stitch-heavy workload every extra allocation here adds a
// sizeable share to allocations per operation, so an escaping closure or
// interface on the producer path must show up here first.
const coldStitchAllocBudget = 9

func TestColdStitchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	rt, m := producerRuntime(CacheOptions{Shards: 1})
	ms := newMachineState(rt)
	ks := encodeKey([]int64{5})
	sh := rt.shardFor(0, ks)
	coldMiss := func() {
		if rt.lookupShared(0, ks) != nil {
			t.Fatal("specialization still resident")
		}
		if _, err := rt.stitchNow(m, ms, 0, ks, fixtureTbl); err != nil {
			t.Fatal(err)
		}
		// Forget the specialization at both levels so the next run misses.
		sh.mu.Lock()
		sh.dropLocked(rt, sh.entries[cacheKey{region: 0, key: ks}])
		sh.mu.Unlock()
		delete(ms.cache[0], ks)
		ms.fifo, ms.count = ms.fifo[:0], 0
	}
	coldMiss() // warm the stitcher's scratch pools and the maps
	if n := testing.AllocsPerRun(100, coldMiss); n > coldStitchAllocBudget {
		t.Errorf("a cold miss allocates %.0f objects, budget %d", n, coldStitchAllocBudget)
	}
}
