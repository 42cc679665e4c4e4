package dyncc

import "testing"

// mustStatic compiles statically or fails the test.
func mustStatic(t *testing.T, src string) *Program {
	t.Helper()
	p, err := CompileStatic(src)
	if err != nil {
		t.Fatalf("static compile: %v", err)
	}
	return p
}

func mustDynamic(t *testing.T, src string) *Program {
	t.Helper()
	// KeepStitched: several golden tests inspect the stitched segments,
	// which are not retained by default.
	p, err := Compile(src, Config{Dynamic: true, Optimize: true,
		Cache: CacheOptions{KeepStitched: true}})
	if err != nil {
		t.Fatalf("dynamic compile: %v", err)
	}
	return p
}

func runI(t *testing.T, p *Program, fn string, args ...int64) int64 {
	t.Helper()
	m := p.NewMachine(0)
	v, err := m.Call(fn, args...)
	if err != nil {
		t.Fatalf("run %s: %v", fn, err)
	}
	return v
}

func TestStaticArith(t *testing.T) {
	p := mustStatic(t, `
int f(int x, int y) {
    return (x + y) * 3 - x / 2 + (x % 5) - (y << 1) + (x & y) ;
}`)
	got := runI(t, p, "f", 17, 5)
	x, y := int64(17), int64(5)
	want := (x+y)*3 - x/2 + (x % 5) - (y << 1) + (x & y)
	if got != want {
		t.Fatalf("got %d want %d", got, want)
	}
}

func TestStaticControlFlow(t *testing.T) {
	p := mustStatic(t, `
int collatzSteps(int n) {
    int steps = 0;
    while (n != 1) {
        if (n % 2 == 0) { n = n / 2; } else { n = 3*n + 1; }
        steps++;
    }
    return steps;
}
int fib(int n) {
    if (n < 2) return n;
    return fib(n-1) + fib(n-2);
}
int gotoLoop(int n) {
    int i = 0, acc = 0;
top:
    if (i >= n) goto done;
    acc += i;
    i++;
    goto top;
done:
    return acc;
}
int sw(int x) {
    int r = 0;
    switch (x) {
    case 1: r += 10; /* fall through */
    case 2: r += 20; break;
    case 3: r = 99; break;
    default: r = -1;
    }
    return r;
}`)
	if got := runI(t, p, "collatzSteps", 27); got != 111 {
		t.Errorf("collatz(27) = %d, want 111", got)
	}
	if got := runI(t, p, "fib", 12); got != 144 {
		t.Errorf("fib(12) = %d, want 144", got)
	}
	if got := runI(t, p, "gotoLoop", 10); got != 45 {
		t.Errorf("gotoLoop(10) = %d, want 45", got)
	}
	for x, want := range map[int64]int64{1: 30, 2: 20, 3: 99, 7: -1} {
		if got := runI(t, p, "sw", x); got != want {
			t.Errorf("sw(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestStaticArraysStructs(t *testing.T) {
	p := mustStatic(t, `
struct Point { int x; int y; };
int sumArray(int n) {
    int a[16];
    int i;
    for (i = 0; i < n; i++) a[i] = i * i;
    int s = 0;
    for (i = 0; i < n; i++) s += a[i];
    return s;
}
int structs(int v) {
    struct Point p;
    p.x = v;
    p.y = v * 2;
    struct Point *q = &p;
    q->x += 5;
    return p.x + q->y;
}
int heap(int n) {
    int *a = alloc(n);
    int i;
    for (i = 0; i < n; i++) a[i] = i + 1;
    int s = 0;
    for (i = 0; i < n; i++) s += a[i];
    return s;
}`)
	if got := runI(t, p, "sumArray", 10); got != 285 {
		t.Errorf("sumArray(10) = %d, want 285", got)
	}
	if got := runI(t, p, "structs", 7); got != 12+14 {
		t.Errorf("structs(7) = %d, want 26", got)
	}
	if got := runI(t, p, "heap", 100); got != 5050 {
		t.Errorf("heap(100) = %d, want 5050", got)
	}
}

func TestStaticFloat(t *testing.T) {
	p := mustStatic(t, `
float poly(float x) {
    return 3.0 * x * x - 2.5 * x + 1.0;
}`)
	m := p.NewMachine(0)
	got, err := m.CallF("poly", 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3.0*4.0-2.5*2.0+1.0 {
		t.Fatalf("poly(2) = %g", got)
	}
}

const trivialRegion = `
int f(int c, int x) {
    int r;
    dynamicRegion (c) {
        r = c * 10 + x;
    }
    return r;
}`

func TestDynamicTrivialRegion(t *testing.T) {
	ps := mustStatic(t, trivialRegion)
	pd := mustDynamic(t, trivialRegion)
	for _, x := range []int64{0, 1, -3, 100} {
		want := runI(t, ps, "f", 7, x)
		got := runI(t, pd, "f", 7, x)
		if got != want {
			t.Fatalf("f(7,%d): dynamic %d != static %d", x, got, want)
		}
	}
}

// The paper's running example (section 2 / Figure 1): cache lookup in a
// cache simulator. Layout (one word per field):
//
//	Cache:   blockSize, numLines, associativity, lines(ptr)
//	Line:    sets(ptr)
//	Set:     tag, data
const cacheLookupSrc = `
struct SetStructure { int tag; int data; };
struct CacheLine { struct SetStructure **sets; };
struct Cache {
    unsigned blockSize;
    unsigned numLines;
    int associativity;
    struct CacheLine **lines;
};

int cacheLookup(unsigned addr, struct Cache *cache) {
    dynamicRegion (cache) {
        unsigned blockSize = cache->blockSize;
        unsigned numLines = cache->numLines;
        unsigned tag = addr / (blockSize * numLines);
        unsigned line = (addr / blockSize) % numLines;
        struct SetStructure **setArray = cache->lines[line]->sets;
        int assoc = cache->associativity;
        int set;
        unrolled for (set = 0; set < assoc; set++) {
            if (setArray[set] dynamic-> tag == tag)
                return 1; /* CacheHit */
        }
        return 0; /* CacheMiss */
    }
    return -1;
}`

// buildCache constructs the cache data structure in VM memory and returns
// its address. tags[line][way] provides initial tag contents.
func buildCache(t *testing.T, m *Machine, blockSize, numLines, assoc int64) int64 {
	t.Helper()
	alloc := func(n int64) int64 {
		a, err := m.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	mem := m.Mem()
	cache := alloc(4)
	lines := alloc(numLines)
	mem[cache+0] = blockSize
	mem[cache+1] = numLines
	mem[cache+2] = assoc
	mem[cache+3] = lines
	for l := int64(0); l < numLines; l++ {
		lineS := alloc(1)
		mem[lines+l] = lineS
		sets := alloc(assoc)
		mem[lineS] = sets
		for w := int64(0); w < assoc; w++ {
			set := alloc(2)
			mem[sets+w] = set
			mem[set] = -1 // empty tag
		}
	}
	return cache
}

// plantTag installs a tag so that addr hits in the cache.
func plantTag(m *Machine, cache, addr int64, way int64) {
	mem := m.Mem()
	blockSize := mem[cache+0]
	numLines := mem[cache+1]
	tag := addr / (blockSize * numLines)
	line := (addr / blockSize) % numLines
	lineS := mem[mem[cache+3]+line]
	set := mem[mem[lineS]+way]
	mem[set] = tag
}

func TestCacheLookupDynamicMatchesStatic(t *testing.T) {
	ps := mustStatic(t, cacheLookupSrc)
	pd := mustDynamic(t, cacheLookupSrc)

	run := func(p *Program) []int64 {
		m := p.NewMachine(0)
		cache := buildCache(t, m, 32, 512, 4)
		plantTag(m, cache, 0x12345, 2)
		plantTag(m, cache, 0x400, 0)
		var out []int64
		for _, addr := range []int64{0x12345, 0x400, 0x99999, 0, 0x12340} {
			v, err := m.Call("cacheLookup", addr, cache)
			if err != nil {
				t.Fatalf("cacheLookup(%#x): %v", addr, err)
			}
			out = append(out, v)
		}
		return out
	}
	sres := run(ps)
	dres := run(pd)
	for i := range sres {
		if sres[i] != dres[i] {
			t.Fatalf("lookup %d: static %d, dynamic %d", i, sres[i], dres[i])
		}
	}
	// 0x12345 and 0x400 planted as hits; 0x12340 shares the block of 0x12345.
	want := []int64{1, 1, 0, 0, 1}
	for i := range want {
		if sres[i] != want[i] {
			t.Fatalf("lookup %d = %d, want %d", i, sres[i], want[i])
		}
	}
}

// TestBoundedCacheAPI exercises the public cache-lifecycle surface: caps,
// the statistics invariant, churn reporting, and key invalidation.
func TestBoundedCacheAPI(t *testing.T) {
	const src = `
int scale(int s, int x) {
    int r;
    dynamicRegion key(s) () {
        r = x * s;
    }
    return r;
}`
	p, err := Compile(src, Config{Dynamic: true, Optimize: true,
		Cache: CacheOptions{
			MaxEntries:        4,
			MachineMaxEntries: 4,
			Shards:            1,
			ChurnStats:        true,
		}})
	if err != nil {
		t.Fatal(err)
	}
	m := p.NewMachine(0)
	for s := int64(1); s <= 16; s++ {
		if got, err := m.Call("scale", s, 3); err != nil || got != 3*s {
			t.Fatalf("scale(%d,3) = %d, %v", s, got, err)
		}
	}
	cs := p.CacheStats()
	if cs.PeakEntries > 4 || cs.EntriesResident > 4 {
		t.Errorf("cap not enforced: %+v", cs)
	}
	if cs.Evictions == 0 || cs.BytesResident == 0 {
		t.Errorf("eviction stats missing: %+v", cs)
	}
	if cs.Lookups != cs.SharedHits+cs.Waits+cs.FailedHits+cs.Misses {
		t.Errorf("lookup invariant violated: %+v", cs)
	}
	churn := p.CacheChurn()
	if len(churn) != 1 || churn[0].Stitches != cs.Stitches {
		t.Errorf("churn report: %+v (stats %+v)", churn, cs)
	}

	p.InvalidateKey(0, 16)
	if got, err := m.Call("scale", 16, 5); err != nil || got != 80 {
		t.Fatalf("after InvalidateKey: %d, %v", got, err)
	}
	if got := p.CacheStats().Invalidations; got != 1 {
		t.Errorf("invalidations: %d, want 1", got)
	}
}

// A literal the optimizer folds into the region's last block and that is
// used only after the region must keep its template definition: the
// splitter's plan exempts such literals from demotion, so the strip step
// must not drop them. (Generated corpus program: inlining and const-fold
// turn the whole region into `v = const -14937`, returned after it.)
func TestLiteralUsedOnlyAfterRegion(t *testing.T) {
	src := `
int h0(int p, int q) { return (p * (42 | p)); }
int h1(int p, int q) { return (p | (-3 * p)); }
int f(int *a, int n, int c, int x) {
    int acc = 0;
    acc = h1(39, x);
    dynamicRegion key(c, n) (a) {
        acc = acc ^ h0((2 + -1), n);
        acc = acc ^ h0((-3 ^ acc), (acc - c));
    }
    return acc;
}`
	const want = -14937
	if got := runI(t, mustStatic(t, src), "f", 0, 3, 5, 7); got != want {
		t.Fatalf("static: f = %d, want %d", got, want)
	}
	p := mustDynamic(t, src)
	m := p.NewMachine(0)
	for i, args := range [][]int64{{0, 3, 5, 7}, {0, 3, 5, -2}, {0, 4, 9, 1}} {
		v, err := m.Call("f", args...)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if v != want {
			t.Errorf("call %d: f%v = %d, want %d", i, args, v, want)
		}
	}
}
