package opt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dyncc/internal/ir"
	"dyncc/internal/lower"
	"dyncc/internal/parser"
)

func compileSSA(t *testing.T, src string) *ir.Module {
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

func countOp(f *ir.Func, op ir.Op) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == op {
				n++
			}
		}
	}
	return n
}

func TestConstFoldArithmetic(t *testing.T) {
	mod := compileSSA(t, `int f() { return (2 + 3) * 4 - 6 / 2; }`)
	f := mod.FuncIndex["f"]
	Optimize(f)
	if n := countOp(f, ir.OpAdd) + countOp(f, ir.OpMul) + countOp(f, ir.OpDiv); n != 0 {
		t.Errorf("%d arithmetic ops left after folding:\n%s", n, f)
	}
	env := ir.NewInterpEnv(mod, 0)
	if got, _ := env.CallFunc("f"); got != 17 {
		t.Errorf("f() = %d, want 17", got)
	}
}

func TestBranchFolding(t *testing.T) {
	mod := compileSSA(t, `int f(int x) { if (1) return x + 1; return x + 2; }`)
	f := mod.FuncIndex["f"]
	Optimize(f)
	if n := countOp(f, ir.OpBr); n != 0 {
		t.Errorf("constant branch not folded:\n%s", f)
	}
	env := ir.NewInterpEnv(mod, 0)
	if got, _ := env.CallFunc("f", 10); got != 11 {
		t.Errorf("f(10) = %d", got)
	}
}

func TestCSEUnifiesRepeatedExpr(t *testing.T) {
	mod := compileSSA(t, `int f(int *p, int x) { return p[x*2] + p[x*2+1]; }`)
	f := mod.FuncIndex["f"]
	Optimize(f)
	// x*2 is strength-reduced to a shift and shared.
	if n := countOp(f, ir.OpMul) + countOp(f, ir.OpShl); n > 1 {
		t.Errorf("repeated x*2 not unified (%d remain):\n%s", n, f)
	}
}

func TestSimplifyStrengthReduction(t *testing.T) {
	mod := compileSSA(t, `
unsigned f(unsigned x) { return x * 8 + x / 4 + x % 16; }`)
	f := mod.FuncIndex["f"]
	Optimize(f)
	if countOp(f, ir.OpMul) != 0 || countOp(f, ir.OpUDiv) != 0 || countOp(f, ir.OpUMod) != 0 {
		t.Errorf("power-of-two ops not reduced:\n%s", f)
	}
	env := ir.NewInterpEnv(mod, 0)
	got, err := env.CallFunc("f", 100)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(100*8 + 100/4 + 100%16); got != want {
		t.Errorf("f(100) = %d, want %d", got, want)
	}
}

func TestDCERemovesCyclicDeadPhis(t *testing.T) {
	// A loop whose accumulator is never used after the loop: the φ web is
	// circularly self-referential and must still die.
	mod := compileSSA(t, `
int f(int n) {
    int dead = 0;
    int i;
    for (i = 0; i < n; i++) { dead = dead + i; }
    return n;
}`)
	f := mod.FuncIndex["f"]
	Optimize(f)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Dst != 0 && f.ValueInfo(in.Dst).Name == "dead" {
				t.Errorf("dead accumulator survived: %s", in)
			}
		}
	}
}

func TestRegionScopeRestriction(t *testing.T) {
	// A value computed inside the region must not be reused by code
	// outside it (its definition may move into set-up code).
	mod := compileSSA(t, `
int use(int v) { return v; }
int f(int c, int x) {
    int r;
    dynamicRegion (c) {
        r = use(c * x);
    }
    return r + c * x;
}`)
	f := mod.FuncIndex["f"]
	Optimize(f)
	// The multiply outside the region must still exist (no cross-region CSE).
	muls := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpMul && b.Region == nil {
				muls++
			}
		}
	}
	if muls == 0 {
		t.Errorf("outside-region multiply was CSE'd into the region:\n%s", f)
	}
}

// Differential property test: Optimize must preserve the interpreter
// semantics of randomly generated arithmetic functions.
func TestOptimizePreservesSemantics(t *testing.T) {
	gen := func(seed int64) string {
		r := rand.New(rand.NewSource(seed))
		ops := []string{"+", "-", "*", "&", "|", "^"}
		expr := "x"
		for i := 0; i < 8; i++ {
			switch r.Intn(3) {
			case 0:
				expr = "(" + expr + " " + ops[r.Intn(len(ops))] + " y)"
			case 1:
				expr = "(" + expr + " " + ops[r.Intn(len(ops))] + " " +
					itoa(r.Intn(200)-100) + ")"
			case 2:
				expr = "(-" + expr + ")"
			}
		}
		return `int f(int x, int y) {
    int a = ` + expr + `;
    int b = a * 4 + x;
    if (b > 0) { a = a - b; } else { a = a + b; }
    while (a > 1000) { a = a - 997; }
    return a ^ b;
}`
	}
	check := func(seed int64, x, y int16) bool {
		src := gen(seed)
		m1 := compileSSA(t, src)
		m2 := compileSSA(t, src)
		Optimize(m2.FuncIndex["f"])
		e1 := ir.NewInterpEnv(m1, 0)
		e2 := ir.NewInterpEnv(m2, 0)
		v1, err1 := e1.CallFunc("f", int64(x), int64(y))
		v2, err2 := e2.CallFunc("f", int64(x), int64(y))
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		return err1 != nil || v1 == v2
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func itoa(v int) string {
	if v < 0 {
		return "(0 - " + itoa(-v) + ")"
	}
	digits := "0123456789"
	if v < 10 {
		return string(digits[v])
	}
	return itoa(v/10) + string(digits[v%10])
}
