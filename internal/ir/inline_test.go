package ir_test

import (
	"strings"
	"testing"

	"dyncc/internal/ir"
	"dyncc/internal/lower"
	"dyncc/internal/parser"
)

// buildSSA parses and lowers src and puts every function in SSA form.
func buildSSA(t *testing.T, src string) *ir.Module {
	t.Helper()
	file, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := lower.Lower(file, nil)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	for _, f := range mod.Funcs {
		ir.BuildSSA(f, nil)
	}
	return mod
}

// findCall returns the first call of sym in f.
func findCall(f *ir.Func, sym string) *ir.Instr {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall && in.Sym == sym {
				return in
			}
		}
	}
	return nil
}

// inlineAndVerify grafts the first call of callee into caller and requires
// the result to pass ir.Verify.
func inlineAndVerify(t *testing.T, mod *ir.Module, caller, callee string) *ir.Func {
	t.Helper()
	cr, ce := mod.FuncIndex[caller], mod.FuncIndex[callee]
	call := findCall(cr, callee)
	if call == nil {
		t.Fatalf("no call of %s in %s", callee, caller)
	}
	if err := ir.InlineCall(cr, call, ce, nil); err != nil {
		t.Fatalf("InlineCall: %v", err)
	}
	if err := ir.Verify(cr, nil); err != nil {
		t.Fatalf("post-inline verify: %v\n%s", err, cr)
	}
	for _, b := range cr.Blocks {
		for _, in := range b.Instrs {
			if in == call {
				t.Fatalf("grafted call site still present:\n%s", cr)
			}
		}
	}
	return cr
}

// diffInterp interprets fn in both modules over the inputs and requires
// identical outputs — the grafted body must be semantically invisible.
func diffInterp(t *testing.T, got, want *ir.Module, fn string, inputs [][]int64) {
	t.Helper()
	for _, args := range inputs {
		ge := ir.NewInterpEnv(got, 0)
		we := ir.NewInterpEnv(want, 0)
		g, err := ge.CallFunc(fn, args...)
		if err != nil {
			t.Fatalf("inlined interp %s%v: %v", fn, args, err)
		}
		w, err := we.CallFunc(fn, args...)
		if err != nil {
			t.Fatalf("reference interp %s%v: %v", fn, args, err)
		}
		if g != w {
			t.Fatalf("%s%v: inlined %d, reference %d", fn, args, g, w)
		}
	}
}

// TestInlineStraightLine: single-return callee, value used downstream; the
// return materializes as a copy at the continuation head.
func TestInlineStraightLine(t *testing.T) {
	const src = `
int helper(int a, int b) {
    return a * b + (a >> 1);
}
int f(int x, int y) {
    int t;
    t = helper(x + 1, y);
    return t ^ helper(y, x);
}`
	mod := buildSSA(t, src)
	f := inlineAndVerify(t, mod, "f", "helper")
	f = inlineAndVerify(t, mod, "f", "helper") // second call site
	_ = f
	diffInterp(t, mod, buildSSA(t, src), "f",
		[][]int64{{0, 0}, {3, 5}, {-7, 11}, {1 << 30, -9}})
}

// TestInlineMultiReturn: a callee with two rets must produce a φ at the
// continuation merging both returning paths.
func TestInlineMultiReturn(t *testing.T) {
	const src = `
int clamp(int v, int hi) {
    if (v > hi) {
        return hi;
    }
    return v;
}
int f(int x, int y) {
    return clamp(x, y) + clamp(y, 100);
}`
	mod := buildSSA(t, src)
	inlineAndVerify(t, mod, "f", "clamp")
	f := inlineAndVerify(t, mod, "f", "clamp")
	if !strings.Contains(f.String(), "phi") {
		t.Fatalf("multi-return inline produced no phi:\n%s", f)
	}
	diffInterp(t, mod, buildSSA(t, src), "f",
		[][]int64{{0, 0}, {5, 3}, {3, 5}, {-1, 200}, {101, 99}})
}

// TestInlineInsideLoop: a call inside a rolled loop — the grafted blocks
// join the loop body, the block split moves the back edge, and loop φs in
// the header must stay aligned.
func TestInlineInsideLoop(t *testing.T) {
	const src = `
int step(int s, int i) {
    if (i & 1) {
        return s + i * 3;
    }
    return s ^ i;
}
int f(int n) {
    int s;
    int i;
    s = 0;
    for (i = 0; i < n; i++) {
        s = step(s, i);
    }
    return s;
}`
	mod := buildSSA(t, src)
	inlineAndVerify(t, mod, "f", "step")
	diffInterp(t, mod, buildSSA(t, src), "f",
		[][]int64{{0}, {1}, {2}, {7}, {31}})
}

// TestInlineVoidAndSideEffects: a void callee mutating a global; the call
// has no destination, so no φ is materialized, and the store must land.
func TestInlineVoidAndSideEffects(t *testing.T) {
	const src = `
int g;
void bump(int d) {
    g = g + d;
}
int f(int x) {
    bump(x);
    bump(x * 2);
    return g;
}`
	mod := buildSSA(t, src)
	inlineAndVerify(t, mod, "f", "bump")
	inlineAndVerify(t, mod, "f", "bump")
	diffInterp(t, mod, buildSSA(t, src), "f",
		[][]int64{{0}, {1}, {-4}, {1000}})
}

// TestInlineRejects: the structural screens must refuse bad grafts rather
// than corrupt the IR.
func TestInlineRejects(t *testing.T) {
	const src = `
int rec(int n) {
    if (n < 1) {
        return 0;
    }
    return n + rec(n - 1);
}
int addr(int x) {
    int a[4];
    a[0] = x;
    return a[0];
}
int region(int k, int x) {
    int s;
    s = 0;
    dynamicRegion key(k) () {
        s = k * x;
    }
    return s;
}
int f(int x) {
    return rec(x) + addr(x) + region(x, 2);
}`
	mod := buildSSA(t, src)
	f := mod.FuncIndex["f"]
	// Direct self-inline.
	rec := mod.FuncIndex["rec"]
	if err := ir.InlineCall(rec, findCall(rec, "rec"), rec, nil); err == nil {
		t.Fatal("self-inline accepted")
	}
	// Stack frame.
	if err := ir.InlineCall(f, findCall(f, "addr"), mod.FuncIndex["addr"], nil); err == nil {
		t.Fatal("stack-frame callee accepted")
	}
	// Dynamic region.
	if err := ir.InlineCall(f, findCall(f, "region"), mod.FuncIndex["region"], nil); err == nil {
		t.Fatal("region-bearing callee accepted")
	}
	// Everything still verifies after the refusals.
	for _, fn := range mod.Funcs {
		if err := ir.Verify(fn, nil); err != nil {
			t.Fatalf("verify after refusals: %v", err)
		}
	}
}
