package codegen_test

import (
	"testing"

	"dyncc/internal/codegen"
	"dyncc/internal/ir"
	"dyncc/internal/lower"
	"dyncc/internal/parser"
	"dyncc/internal/split"
	"dyncc/internal/vm"
)

func compileProg(t *testing.T, src string, dynamic bool) (*codegen.Output, *ir.Module) {
	t.Helper()
	file, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := lower.Lower(file, nil)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	splits := map[*ir.Region]*split.Result{}
	for _, f := range mod.Funcs {
		ir.BuildSSA(f, nil)
		if dynamic {
			for _, r := range f.Regions {
				sr, err := split.Split(f, r, nil)
				if err != nil {
					t.Fatalf("split: %v", err)
				}
				splits[r] = sr
			}
		}
	}
	out, err := codegen.Compile(mod, splits, codegen.Options{}, nil)
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	return out, mod
}

func runFunc(t *testing.T, out *codegen.Output, fn string, args ...int64) int64 {
	t.Helper()
	m := vm.NewMachine(out.Prog, 1<<16)
	v, err := m.Call(fn, args...)
	if err != nil {
		t.Fatalf("run %s: %v", fn, err)
	}
	return v
}

func TestDenseSwitchUsesJumpTable(t *testing.T) {
	out, _ := compileProg(t, `
int f(int x) {
    switch (x) {
    case 0: return 10;
    case 1: return 11;
    case 2: return 12;
    case 3: return 13;
    case 4: return 14;
    }
    return -1;
}`, false)
	seg := out.Prog.Segs[out.Prog.FuncID("f")]
	if len(seg.JumpTables) != 1 {
		t.Fatalf("jump tables: %d", len(seg.JumpTables))
	}
	if len(seg.JumpTables[0]) != 5 {
		t.Errorf("table size: %d", len(seg.JumpTables[0]))
	}
	hasJTBL := false
	for _, in := range seg.Code {
		if in.Op == vm.JTBL {
			hasJTBL = true
		}
	}
	if !hasJTBL {
		t.Error("no JTBL emitted for a dense switch")
	}
	for x, want := range map[int64]int64{0: 10, 4: 14, 5: -1, -1: -1} {
		if got := runFunc(t, out, "f", x); got != want {
			t.Errorf("f(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestSparseSwitchUsesCompareChain(t *testing.T) {
	out, _ := compileProg(t, `
int f(int x) {
    switch (x) {
    case 5: return 1;
    case 5000: return 2;
    }
    return 0;
}`, false)
	seg := out.Prog.Segs[out.Prog.FuncID("f")]
	if len(seg.JumpTables) != 0 {
		t.Error("sparse switch should not build a jump table")
	}
	for x, want := range map[int64]int64{5: 1, 5000: 2, 6: 0} {
		if got := runFunc(t, out, "f", x); got != want {
			t.Errorf("f(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestLiteralOperandsFoldToImmediates(t *testing.T) {
	out, _ := compileProg(t, `int f(int x) { return (x + 5) * 3 - (x & 7); }`, false)
	seg := out.Prog.Segs[out.Prog.FuncID("f")]
	// After literal folding + dead-write elimination: ADDI/ANDI forms and
	// no LIs left for the small constants.
	var addi, andi, li int
	for _, in := range seg.Code {
		switch in.Op {
		case vm.ADDI:
			addi++
		case vm.ANDI:
			andi++
		case vm.LI:
			li++
		}
	}
	if addi == 0 || andi == 0 {
		t.Errorf("immediate forms not used: %s", seg.Disasm())
	}
	if li != 0 {
		t.Errorf("%d dead LIs survive:\n%s", li, seg.Disasm())
	}
	if got := runFunc(t, out, "f", 10); got != (10+5)*3-(10&7) {
		t.Errorf("f(10) = %d", got)
	}
}

func TestPrologueAndFrame(t *testing.T) {
	out, _ := compileProg(t, `
int f(int a, int b) {
    int arr[6];
    arr[0] = a;
    arr[5] = b;
    return arr[0] + arr[5];
}`, false)
	seg := out.Prog.Segs[out.Prog.FuncID("f")]
	if seg.FrameSize < 6 {
		t.Errorf("frame size %d < 6", seg.FrameSize)
	}
	if seg.Code[0].Op != vm.SUBI || seg.Code[0].Rd != vm.RSP {
		t.Errorf("missing stack prologue: %s", seg.Code[0])
	}
	if got := runFunc(t, out, "f", 3, 4); got != 7 {
		t.Errorf("f = %d", got)
	}
}

func TestRegionAttributionArrays(t *testing.T) {
	out, _ := compileProg(t, `
int f(int c, int x) {
    int r;
    dynamicRegion (c) { r = c + x; }
    return r;
}`, true)
	seg := out.Prog.Segs[out.Prog.FuncID("f")]
	if len(seg.RegionOf) != len(seg.Code) {
		t.Fatalf("RegionOf length %d != code %d", len(seg.RegionOf), len(seg.Code))
	}
	var regionPCs, setupPCs int
	for i := range seg.Code {
		if seg.RegionOf[i] >= 0 {
			regionPCs++
			if seg.SetupOf[i] {
				setupPCs++
			}
		}
	}
	if regionPCs == 0 || setupPCs == 0 {
		t.Errorf("attribution: region=%d setup=%d", regionPCs, setupPCs)
	}
}

func TestTemplateMetadata(t *testing.T) {
	out, _ := compileProg(t, `
int f(int c, int n, int *a, int x) {
    int r = 0;
    dynamicRegion (c, n, a) {
        int i;
        unrolled for (i = 0; i < n; i++) {
            r = r + a dynamic[i] * c;
        }
    }
    return r;
}`, true)
	tr := out.Regions[0]
	if tr.TemplateInsts() == 0 {
		t.Fatal("no template instructions")
	}
	if len(tr.Loops) != 1 {
		t.Fatalf("loops: %d", len(tr.Loops))
	}
	l := tr.Loops[0]
	if l.HeadBlock < 0 || l.HeadBlock >= len(tr.Blocks) {
		t.Errorf("head block index: %d", l.HeadBlock)
	}
	if l.RecordSize < 2 {
		t.Errorf("record size: %d", l.RecordSize)
	}
	holeCount := 0
	for _, b := range tr.Blocks {
		holeCount += len(b.Holes)
	}
	if holeCount == 0 {
		t.Error("no holes in templates")
	}
	// Directives listing exercises every block.
	if ds := tr.Directives(); len(ds) < len(tr.Blocks) {
		t.Errorf("directive listing too short: %d", len(ds))
	}
}

func TestStaticModeRegionEntryMarkers(t *testing.T) {
	out, _ := compileProg(t, `
int f(int c, int x) {
    int r;
    dynamicRegion (c) { r = c + x; }
    return r;
}`, false)
	seg := out.Prog.Segs[out.Prog.FuncID("f")]
	n := 0
	for _, r := range seg.RegionEntry {
		if r >= 0 {
			n++
		}
	}
	if n != 1 {
		t.Errorf("static region entry markers: %d", n)
	}
}
