package split

import (
	"testing"

	"dyncc/internal/ir"
	"dyncc/internal/lower"
	"dyncc/internal/parser"
)

func splitFirst(t *testing.T, src, fn string) (*ir.Func, *Result) {
	t.Helper()
	file, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := lower.Lower(file, nil)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	f := mod.FuncIndex[fn]
	ir.BuildSSA(f, nil)
	res, err := Split(f, f.Regions[0], nil)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	return f, res
}

func TestSplitBasicStructure(t *testing.T) {
	f, res := splitFirst(t, `
int use(int v) { return v; }
int f(int c, int x) {
    int r;
    dynamicRegion (c) {
        int a = c * 3;
        r = use(a + x);
    }
    return r;
}`, "f")

	if res.SetupEntry == nil || !res.SetupEntry.Setup {
		t.Fatal("no set-up entry")
	}
	if res.TemplateEntry == nil || !res.TemplateEntry.Template {
		t.Fatal("no template entry")
	}
	// Region entry now ends in DynEnter pointing at both subgraphs.
	term := res.Region.Entry.Term()
	if term.Op != ir.OpDynEnter {
		t.Fatalf("region entry terminator: %s", term.Op)
	}
	if term.Targets[0] != res.SetupEntry || term.Targets[1] != res.TemplateEntry {
		t.Error("DynEnter targets wrong")
	}
	// The derived constant a = c*3 must have a table slot, and the multiply
	// must be gone from the templates.
	if len(res.Holes) == 0 {
		t.Fatal("no holes assigned")
	}
	for _, b := range f.Blocks {
		if !b.Template {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op == ir.OpMul {
				t.Error("constant multiply left in template")
			}
		}
	}
	if res.Stats.ConstOpsFolded == 0 {
		t.Error("no constant folding recorded")
	}
	// Set-up ends with DynStitch into the template entry.
	foundStitch := false
	for _, b := range f.Blocks {
		if !b.Setup {
			continue
		}
		if tm := b.Term(); tm != nil && tm.Op == ir.OpDynStitch {
			foundStitch = true
			if tm.Targets[0] != res.TemplateEntry {
				t.Error("DynStitch target wrong")
			}
		}
	}
	if !foundStitch {
		t.Error("no DynStitch emitted")
	}
}

func TestSlotScopes(t *testing.T) {
	_, res := splitFirst(t, `
int use(int v) { return v; }
int f(int *a, int n, int x) {
    int r = 0;
    dynamicRegion (a, n) {
        int i;
        unrolled for (i = 0; i < n; i++) {
            r = r + a[i] * x;
        }
    }
    return r;
}`, "f")
	if res.Stats.LoopsUnrolled != 1 {
		t.Fatalf("loops unrolled: %d", res.Stats.LoopsUnrolled)
	}
	region, loop := 0, 0
	for _, h := range res.Holes {
		if h.Slot.Loop == nil {
			region++
		} else {
			loop++
		}
	}
	if loop == 0 {
		t.Error("expected per-iteration slots (a[i] value, loop condition)")
	}
	l := res.Region.Loops[0]
	if l.RecordSize < 2 {
		t.Errorf("record size: %d", l.RecordSize)
	}
	if res.NextSlot[l] != l.RecordSize-1 {
		t.Errorf("next slot %d, record size %d", res.NextSlot[l], l.RecordSize)
	}
	_ = region
}

func TestLoadEliminationCounted(t *testing.T) {
	_, res := splitFirst(t, `
int use(int v) { return v; }
int f(int *p, int x) {
    int r;
    dynamicRegion (p) {
        r = use(p[0] + p[1] + x);
    }
    return r;
}`, "f")
	if res.Stats.LoadsEliminated < 2 {
		t.Errorf("loads eliminated: %d", res.Stats.LoadsEliminated)
	}
}

func TestConstBranchPlanned(t *testing.T) {
	f, res := splitFirst(t, `
int use(int v) { return v; }
int f(int c, int x) {
    int r = 0;
    dynamicRegion (c) {
        if (c > 10) { r = use(x); } else { r = use(x + 1); }
    }
    return r;
}`, "f")
	if res.Stats.ConstBranches != 1 {
		t.Fatalf("const branches: %d", res.Stats.ConstBranches)
	}
	if len(res.BranchSlot) != 1 {
		t.Fatalf("branch slots: %d", len(res.BranchSlot))
	}
	for br := range res.BranchSlot {
		if br.Op != ir.OpBr {
			t.Errorf("branch op: %s", br.Op)
		}
	}
	_ = f
}

// A constant used outside the region must be demoted (its template
// definition would be stripped otherwise).
func TestDemoteConstUsedOutsideRegion(t *testing.T) {
	f, res := splitFirst(t, `
int use(int v) { return v; }
int f(int c, int x) {
    int a;
    dynamicRegion (c) {
        a = c * 3;
        x = use(a + x);
    }
    return a + x;
}`, "f")
	// a is used by `return a + x` outside the region: the value reaching
	// that use must still be *defined* by an instruction that survives in
	// the template (so the stitched code leaves it in a register), rather
	// than stripped wholesale into set-up.
	usedOutside := map[ir.Value]bool{}
	for _, b := range f.Blocks {
		if b.Region != nil {
			continue
		}
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				usedOutside[a] = true
			}
		}
	}
	ok := false
	for _, b := range f.Blocks {
		if !b.Template {
			continue
		}
		for _, in := range b.Instrs {
			if in.Dst != 0 && usedOutside[in.Dst] {
				ok = true
			}
		}
	}
	if !ok {
		t.Error("outside-used value has no surviving template definition")
	}
	_ = res
}

func TestUnrollRequiresConstantBound(t *testing.T) {
	file, err := parser.Parse(`
int f(int *a, int n, int m) {
    int r = 0;
    dynamicRegion (a) {
        int i;
        unrolled for (i = 0; i < m; i++) { /* m is NOT constant */
            r = r + a[i];
        }
    }
    return r;
}`)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := lower.Lower(file, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := mod.FuncIndex["f"]
	ir.BuildSSA(f, nil)
	if _, err := Split(f, f.Regions[0], nil); err == nil {
		t.Error("expected illegal-unroll error for non-constant bound")
	}
}

func TestLiteralsStayImmediates(t *testing.T) {
	_, res := splitFirst(t, `
int use(int v) { return v; }
int f(int c, int x) {
    int r;
    dynamicRegion (c) {
        r = use(x + 1000);
    }
    return r;
}`, "f")
	for _, h := range res.Holes {
		def := res.Region.Fn.DefOf(h.V)
		if def != nil && def.Op == ir.OpConst {
			t.Errorf("literal v%d got table slot %v", h.V, h.Slot)
		}
	}
}
