package lower

import (
	"testing"

	"dyncc/internal/ir"
	"dyncc/internal/parser"
)

func lowerSrc(t *testing.T, src string) *ir.Module {
	t.Helper()
	file, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := Lower(file, nil)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	for _, f := range mod.Funcs {
		ir.BuildSSA(f, nil)
		if err := ir.Verify(f, nil); err != nil {
			t.Fatalf("verify %s: %v", f.Name, err)
		}
	}
	return mod
}

func eval(t *testing.T, mod *ir.Module, fn string, args ...int64) int64 {
	t.Helper()
	env := ir.NewInterpEnv(mod, 0)
	v, err := env.CallFunc(fn, args...)
	if err != nil {
		t.Fatalf("interp %s: %v", fn, err)
	}
	return v
}

func TestExpressionSemantics(t *testing.T) {
	mod := lowerSrc(t, `
int f(int a, int b) {
    int r = 0;
    r += a > b ? a : b;            /* ternary */
    r += (a && b) + (a || b);      /* short circuit */
    r += !a + ~b;                  /* unary */
    r += a % b;                    /* modulus */
    r <<= 1;
    return r;
}`)
	gold := func(a, b int64) int64 {
		r := int64(0)
		if a > b {
			r += a
		} else {
			r += b
		}
		and, or := int64(0), int64(0)
		if a != 0 && b != 0 {
			and = 1
		}
		if a != 0 || b != 0 {
			or = 1
		}
		r += and + or
		if a == 0 {
			r++
		}
		r += ^b
		r += a % b
		return r << 1
	}
	for _, c := range [][2]int64{{5, 3}, {0, 7}, {-4, 9}, {12, -5}} {
		if got, want := eval(t, mod, "f", c[0], c[1]), gold(c[0], c[1]); got != want {
			t.Errorf("f(%d,%d) = %d, want %d", c[0], c[1], got, want)
		}
	}
}

func TestUnsignedSemantics(t *testing.T) {
	mod := lowerSrc(t, `
unsigned f(unsigned a, unsigned b) {
    return a / b + a % b + (a < b) + (a >> 3);
}`)
	a, b := int64(-1), int64(7) // -1 is the max unsigned value
	want := int64(uint64(a)/uint64(b)) + int64(uint64(a)%uint64(b)) + 0 +
		int64(uint64(a)>>3)
	if got := eval(t, mod, "f", a, b); got != want {
		t.Errorf("unsigned ops: got %d want %d", got, want)
	}
}

func TestPointerArithmetic(t *testing.T) {
	mod := lowerSrc(t, `
struct P { int a; int b; };
int f(int n) {
    struct P *arr = alloc(n * 2);
    int i;
    for (i = 0; i < n; i++) {
        struct P *p = arr + i;
        p->a = i;
        p->b = i * 10;
    }
    struct P *last = &arr[n-1];
    int span = last - arr;
    return arr[n-1].a + last->b + span;
}`)
	if got := eval(t, mod, "f", 5); got != 4+40+4 {
		t.Errorf("ptr arith: %d", got)
	}
}

func TestGlobalsAndInit(t *testing.T) {
	mod := lowerSrc(t, `
int counter = 100;
int table[4];
int bump(int d) {
    counter += d;
    table[1] = counter;
    return counter + table[1];
}`)
	env := ir.NewInterpEnv(mod, 0)
	v1, _ := env.CallFunc("bump", 5)
	if v1 != 210 {
		t.Errorf("first bump: %d", v1)
	}
	v2, _ := env.CallFunc("bump", 5)
	if v2 != 220 {
		t.Errorf("second bump: %d", v2)
	}
}

func TestAddressTakenLocal(t *testing.T) {
	mod := lowerSrc(t, `
void setIt(int *p, int v) { *p = v; }
int f() {
    int x = 1;
    setIt(&x, 42);
    return x;
}`)
	if got := eval(t, mod, "f"); got != 42 {
		t.Errorf("&local: %d", got)
	}
}

func TestNestedStructAccess(t *testing.T) {
	mod := lowerSrc(t, `
struct Inner { int v; };
struct Outer { int pad; struct Inner in; struct Inner *ptr; };
int f() {
    struct Outer o;
    struct Inner heap;
    o.pad = 1;
    o.in.v = 20;
    o.ptr = &heap;
    o.ptr->v = 300;
    return o.pad + o.in.v + o.ptr->v;
}`)
	if got := eval(t, mod, "f"); got != 321 {
		t.Errorf("nested structs: %d", got)
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		`int f() { return g; }`,                           // undefined variable
		`int f() { return g(); }`,                         // undefined function
		`int f(int x) { unrolled for (;;) {} return x; }`, // unrolled outside region
		`int f(struct M *p) { return 0; }`,                // unknown struct
		`int f(int x) { int *p = &x; dynamicRegion (p) { dynamicRegion (p) { } } return 0; }`, // nested region
		`int f() { break; }`,               // break outside loop
		`int f(int x) { return x.field; }`, // field of scalar
	}
	for _, src := range cases {
		file, err := parser.Parse(src)
		if err != nil {
			continue // parse error also acceptable
		}
		if _, err := Lower(file, nil); err == nil {
			t.Errorf("%q: expected lowering error", src)
		}
	}
}

func TestAnnotatedConstMustBeRegisterable(t *testing.T) {
	file, err := parser.Parse(`
int f(int c) {
    int arr[4];
    dynamicRegion (arr) { arr[0] = c; }
    return arr[0];
}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Lower(file, nil); err == nil {
		t.Error("expected error: aggregate annotated as run-time constant")
	}
}

func TestRegionMetadata(t *testing.T) {
	mod := lowerSrc(t, `
int f(int c, int k, int x) {
    int r;
    dynamicRegion key(k) (c) {
        r = c + k + x;
    }
    return r;
}`)
	f := mod.FuncIndex["f"]
	if len(f.Regions) != 1 {
		t.Fatalf("regions: %d", len(f.Regions))
	}
	r := f.Regions[0]
	if len(r.Keys) != 1 || len(r.Consts) != 2 {
		t.Errorf("keys %d consts %d (keys are also constants)", len(r.Keys), len(r.Consts))
	}
	if r.Entry == nil || r.Exit == nil {
		t.Error("region entry/exit blocks missing")
	}
}

func TestUnrolledLoopMetadata(t *testing.T) {
	mod := lowerSrc(t, `
int f(int *a, int n) {
    int r = 0;
    dynamicRegion (a, n) {
        int i, j;
        unrolled for (i = 0; i < n; i++) {
            unrolled for (j = 0; j < i; j++) {
                r = r + a dynamic[j];
            }
        }
    }
    return r;
}`)
	f := mod.FuncIndex["f"]
	r := f.Regions[0]
	if len(r.Loops) != 2 {
		t.Fatalf("loops: %d", len(r.Loops))
	}
	outer, inner := r.Loops[0], r.Loops[1]
	if inner.Parent != outer {
		t.Error("inner loop's parent should be the outer loop")
	}
	for _, l := range r.Loops {
		if l.Head == nil || l.Latch == nil {
			t.Error("loop head/latch missing")
		}
		if !l.Head.InLoop(l) {
			t.Error("head not marked in loop")
		}
	}
}
