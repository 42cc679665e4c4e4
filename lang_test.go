package dyncc

import (
	"bytes"
	"strings"
	"testing"
)

// Every program here is run both statically and dynamically compiled and
// the results must agree (and match the expected value).
func bothWays(t *testing.T, src, fn string, want int64, args ...int64) {
	t.Helper()
	for _, cfg := range []Config{
		{Dynamic: false, Optimize: true},
		{Dynamic: true, Optimize: true},
		{Dynamic: true, Optimize: false},
	} {
		p, err := Compile(src, cfg)
		if err != nil {
			t.Fatalf("compile %+v: %v", cfg, err)
		}
		m := p.NewMachine(0)
		got, err := m.Call(fn, args...)
		if err != nil {
			t.Fatalf("run %+v: %v", cfg, err)
		}
		if got != want {
			t.Errorf("%+v: %s = %d, want %d", cfg, fn, got, want)
		}
	}
}

func TestFloatRegion(t *testing.T) {
	src := `
float fma(float c, float x) {
    float r;
    dynamicRegion (c) {
        r = c * x + c;
    }
    return r;
}`
	for _, cfg := range []Config{{Dynamic: false, Optimize: true}, {Dynamic: true, Optimize: true}} {
		p, err := Compile(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := p.NewMachine(0)
		got, err := m.CallF("fma", 2.5, 4.0)
		if err != nil {
			t.Fatal(err)
		}
		if got != 2.5*4.0+2.5 {
			t.Errorf("%+v: fma = %g", cfg, got)
		}
	}
}

func TestMultiKeyRegion(t *testing.T) {
	src := `
int f(int a, int b, int x) {
    int r;
    dynamicRegion key(a, b) () {
        r = a * x + b;
    }
    return r;
}`
	p, err := CompileDynamic(src)
	if err != nil {
		t.Fatal(err)
	}
	m := p.NewMachine(0)
	for _, c := range [][3]int64{{2, 3, 10}, {5, 1, 10}, {2, 3, 20}, {5, 1, 20}} {
		got, err := m.Call("f", c[0], c[1], c[2])
		if err != nil {
			t.Fatal(err)
		}
		if want := c[0]*c[2] + c[1]; got != want {
			t.Errorf("f%v = %d, want %d", c, got, want)
		}
	}
	// Two distinct (a,b) pairs -> two compiled versions.
	if p.c.Runtime.Stats(0).InstsStitched == 0 {
		t.Error("nothing stitched")
	}
	mch := m
	if mch.Region(0).Compiles != 2 {
		t.Errorf("compiles: %d, want 2", mch.Region(0).Compiles)
	}
}

func TestReturnInsideUnrolledLoop(t *testing.T) {
	src := `
int find(int *a, int n, int needle) {
    dynamicRegion (a, n) {
        int i;
        unrolled for (i = 0; i < n; i++) {
            if (a dynamic[i] == needle) return i;
        }
        return -1;
    }
    return -2;
}`
	p, err := CompileDynamic(src)
	if err != nil {
		t.Fatal(err)
	}
	m := p.NewMachine(0)
	addr, _ := m.Alloc(5)
	for i, v := range []int64{10, 20, 30, 40, 50} {
		m.Mem()[addr+int64(i)] = v
	}
	for needle, want := range map[int64]int64{30: 2, 10: 0, 50: 4, 99: -1} {
		got, err := m.Call("find", addr, 5, needle)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("find(%d) = %d, want %d", needle, got, want)
		}
	}
}

func TestRegionCalledRecursively(t *testing.T) {
	src := `
int step(int c, int x) {
    int r;
    dynamicRegion (c) {
        r = x * c + 1;
    }
    return r;
}
int iter(int c, int x, int n) {
    if (n == 0) return x;
    return iter(c, step(c, x), n - 1);
}`
	bothWays(t, src, "iter", 3*(3*(3*1+1)+1)+1, 3, 1, 3)
}

func TestDoWhileAndTernaryInRegion(t *testing.T) {
	src := `
int f(int c, int x) {
    int r = 0;
    dynamicRegion (c) {
        int i = 0;
        do {
            r += (c > 5 ? x : -x);
            i++;
        } while (i < 3);
    }
    return r;
}`
	bothWays(t, src, "f", 3*7, 9, 7)
	bothWays(t, src, "f", -3*7, 2, 7)
}

func TestGotoWithinRegion(t *testing.T) {
	src := `
int f(int c, int x) {
    int r = 0;
    dynamicRegion (c) {
        if (c > 0) goto pos;
        r = -x;
        goto done;
    pos:
        r = x;
    done:
        r = r + c;
    }
    return r;
}`
	bothWays(t, src, "f", 10+4, 4, 10)
	bothWays(t, src, "f", -10-4, -4, 10)
}

func TestPrintBuiltinsInRegion(t *testing.T) {
	src := `
int f(int c) {
    dynamicRegion (c) {
        print_str("value:");
        print_int(c * 2);
    }
    return 0;
}`
	p, err := CompileDynamic(src)
	if err != nil {
		t.Fatal(err)
	}
	m := p.NewMachine(0)
	var buf bytes.Buffer
	m.SetOutput(&buf)
	if _, err := m.Call("f", 21); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); !strings.Contains(got, "value:") || !strings.Contains(got, "42") {
		t.Errorf("output: %q", got)
	}
}

// Failure injection: traps inside dynamically compiled code surface as
// errors, in both compilation modes.
func TestTrapInsideRegion(t *testing.T) {
	src := `
int f(int c, int x) {
    int r;
    dynamicRegion (c) {
        r = x / (x - x);  /* divide by zero at run time */
    }
    return r;
}`
	for _, cfg := range []Config{{Dynamic: false, Optimize: false}, {Dynamic: true, Optimize: false}} {
		p, err := Compile(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := p.NewMachine(0)
		if _, err := m.Call("f", 1, 5); err == nil {
			t.Errorf("%+v: expected a divide-by-zero trap", cfg)
		}
	}
}

// Failure injection: wild loads inside a region trap instead of corrupting
// the machine.
func TestWildLoadTraps(t *testing.T) {
	src := `
int f(int c, int x) {
    int r;
    dynamicRegion (c) {
        r = dynamic* (int*)x;
    }
    return r;
}`
	p, err := CompileDynamic(src)
	if err != nil {
		t.Fatal(err)
	}
	m := p.NewMachine(0)
	if _, err := m.Call("f", 1, 1<<40); err == nil {
		t.Error("expected out-of-bounds trap")
	}
}

// A region executed zero times (function never called) must not stitch.
func TestLazyCompilation(t *testing.T) {
	src := `
int unused(int c) {
    int r;
    dynamicRegion (c) { r = c * 2; }
    return r;
}
int main2() { return 7; }`
	p, err := CompileDynamic(src)
	if err != nil {
		t.Fatal(err)
	}
	m := p.NewMachine(0)
	if _, err := m.Call("main2"); err != nil {
		t.Fatal(err)
	}
	if m.Region(0).Compiles != 0 {
		t.Error("region compiled without being entered")
	}
	if _, err := m.Call("unused", 4); err != nil {
		t.Fatal(err)
	}
	if m.Region(0).Compiles != 1 {
		t.Error("region not compiled on first entry")
	}
}

// Dense and sparse switches in ordinary code (jump table vs compare chain).
func TestSwitchLoweringModes(t *testing.T) {
	src := `
int dense(int x) {
    switch (x) {
    case 0: return 100;
    case 1: return 101;
    case 2: return 102;
    case 3: return 103;
    case 4: return 104;
    default: return -1;
    }
}
int sparse(int x) {
    switch (x) {
    case 1: return 11;
    case 1000: return 12;
    case 100000: return 13;
    default: return -1;
    }
}`
	p := mustStatic(t, src)
	m := p.NewMachine(0)
	for x, want := range map[int64]int64{0: 100, 3: 103, 4: 104, 9: -1, -5: -1} {
		if got, _ := m.Call("dense", x); got != want {
			t.Errorf("dense(%d) = %d, want %d", x, got, want)
		}
	}
	for x, want := range map[int64]int64{1: 11, 1000: 12, 100000: 13, 7: -1} {
		if got, _ := m.Call("sparse", x); got != want {
			t.Errorf("sparse(%d) = %d, want %d", x, got, want)
		}
	}
}

// The cycle budget guard stops runaway programs.
func TestCycleBudget(t *testing.T) {
	p := mustStatic(t, `int spin() { for (;;) {} return 0; }`)
	m := p.NewMachine(0)
	m.m.MaxCycles = 100000
	if _, err := m.Call("spin"); err == nil {
		t.Error("expected cycle-budget abort")
	}
}

// The budget bounds each call, not the machine's lifetime: a long-lived
// machine keeps serving calls whose total far exceeds MaxCycles, and one
// runaway call on it still aborts.
func TestCycleBudgetPerCall(t *testing.T) {
	p := mustStatic(t, `
int work(int n) { int s = 0; int i; for (i = 0; i < n; i++) { s = s + i * 3; } return s; }
int spin() { for (;;) {} return 0; }`)
	m := p.NewMachine(0)
	m.m.MaxCycles = 5000
	const n = 21
	before := m.Cycles()
	if _, err := m.Call("work", n); err != nil {
		t.Fatal(err)
	}
	if per := m.Cycles() - before; per < 400 || per > 900 {
		t.Fatalf("work(%d) takes %d cycles; the test wants about 600", n, per)
	}
	for i := 0; i < 20; i++ {
		if got, err := m.Call("work", n); err != nil || got != 3*n*(n-1)/2 {
			t.Fatalf("call %d: work(%d) = %d, %v", i+2, n, got, err)
		}
	}
	if _, err := m.Call("spin"); err == nil {
		t.Error("expected cycle-budget abort for a runaway call")
	}
	if _, err := m.Call("work", n); err != nil {
		t.Errorf("call after the aborted one: %v", err)
	}
}
