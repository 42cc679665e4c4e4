package analysis

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dyncc/internal/ir"
	"dyncc/internal/types"
)

// testBranches builds n two-way branch blocks usable as condition atoms.
func testBranches(n int) []*ir.Block {
	f := ir.NewFunc("conds", types.FuncType(types.VoidType, nil))
	var bs []*ir.Block
	end := f.NewBlock()
	end.Append(&ir.Instr{Op: ir.OpRet})
	for i := 0; i < n; i++ {
		b := f.NewBlock()
		v := f.NewValue("", types.IntType)
		b.Append(&ir.Instr{Op: ir.OpConst, Dst: v, Typ: types.IntType})
		b.Append(&ir.Instr{Op: ir.OpBr, Args: []ir.Value{v}, Targets: []*ir.Block{end, end}})
		bs = append(bs, b)
	}
	return bs
}

// condHarness pairs a table over test branches with shorthand for the
// tests below.
type condHarness struct {
	t  *condTable
	bs []*ir.Block
}

func newHarness(n int) condHarness {
	bs := testBranches(n)
	return condHarness{t: newCondTable(bs), bs: bs}
}

// atom returns the ID of branch i taking successor s.
func (h condHarness) atom(i, s int) uint32 { return h.t.atom(i, s) }

// conj returns the condition holding exactly when every atom holds.
func (h condHarness) conj(atoms ...uint32) uint32 {
	c := h.t.trueC
	for _, a := range atoms {
		c = h.t.and(c, a)
	}
	return c
}

func (h condHarness) export(c uint32) Cond { return h.t.export([]uint32{c})[0] }

func (h condHarness) str(c uint32) string { return h.export(c).String() }

func TestTrueFalse(t *testing.T) {
	h := newHarness(0)
	if tr := h.export(h.t.trueC); !tr.IsTrue() || tr.IsFalse() {
		t.Error("True misbehaves")
	}
	if fa := h.export(h.t.falseC); !fa.IsFalse() || fa.IsTrue() {
		t.Error("False misbehaves")
	}
}

func TestAndContradiction(t *testing.T) {
	h := newHarness(1)
	c := h.conj(h.atom(0, 0))
	if c == h.t.falseC || c == h.t.trueC {
		t.Fatalf("single atom: %s", h.str(c))
	}
	// B→0 ∧ B→1 is unsatisfiable.
	if c2 := h.t.and(c, h.atom(0, 1)); c2 != h.t.falseC {
		t.Errorf("contradictory conjunction should be false, got %s", h.str(c2))
	}
	// Re-adding the same atom is idempotent.
	if c3 := h.t.and(c, h.atom(0, 0)); c3 != c {
		t.Errorf("idempotent and: %s vs %s", h.str(c), h.str(c3))
	}
}

// The paper's simplification: {{A→T,cs},{A→F,cs},ds} reduces to {{cs},ds}.
func TestComplementaryMerge(t *testing.T) {
	h := newHarness(2)
	a0, a1, b0 := h.atom(0, 0), h.atom(0, 1), h.atom(1, 0)

	left := h.conj(a0, b0)  // {A→T, B→T}
	right := h.conj(a1, b0) // {A→F, B→T}
	merged := h.t.or(left, right)
	if want := h.conj(b0); merged != want {
		t.Errorf("complementary merge: got %s, want %s", h.str(merged), h.str(want))
	}
}

func TestAbsorption(t *testing.T) {
	h := newHarness(2)
	a0, b0 := h.atom(0, 0), h.atom(1, 0)
	weak := h.conj(a0)
	strong := h.conj(a0, b0)
	// weak ∨ strong = weak (the stronger conjunction is absorbed).
	if got := h.t.or(weak, strong); got != weak {
		t.Errorf("absorption: got %s, want %s", h.str(got), h.str(weak))
	}
}

func TestExclusive(t *testing.T) {
	h := newHarness(2)
	a0, a1 := h.atom(0, 0), h.atom(0, 1)
	b0, b1 := h.atom(1, 0), h.atom(1, 1)

	if !h.t.exclusive(h.conj(a0), h.conj(a1)) {
		t.Error("A→T and A→F must be exclusive")
	}
	if h.t.exclusive(h.conj(a0), h.conj(b0)) {
		t.Error("independent branches are not exclusive")
	}
	// (A→T∧B→T) vs (A→F ∨ B→F): pairwise contradictions on both sides.
	c1 := h.conj(a0, b0)
	c2 := h.t.or(h.conj(a1), h.conj(b1))
	if !h.t.exclusive(c1, c2) {
		t.Errorf("%s and %s should be exclusive", h.str(c1), h.str(c2))
	}
	// Anything is exclusive with False, nothing with True.
	if !h.t.exclusive(h.t.trueC, h.t.falseC) {
		t.Error("False is exclusive with everything")
	}
	if h.t.exclusive(h.t.trueC, h.t.trueC) {
		t.Error("True is not exclusive with itself")
	}
}

func TestCapDegradesToTrue(t *testing.T) {
	h := newHarness(MaxConjs + 4)
	c := h.t.falseC
	// Build a disjunction of many distinct conjunctions.
	for i := 0; i < MaxConjs+2; i++ {
		cj := h.conj(h.atom(i, 0))
		if i+1 < len(h.bs) {
			cj = h.t.and(cj, h.atom(i+1, 1))
		}
		c = h.t.or(c, cj)
	}
	if e := h.export(c); !e.IsTrue() {
		t.Errorf("oversized condition should degrade to True, has %d conjs", len(e.Disj))
	}
}

// The canonical order sorts conjunctions by their "%d:%d;" keys as byte
// strings, so a branch in block 10 sorts before one in block 2; the
// splitter emits set-up code in this order.
func TestCanonicalOrder(t *testing.T) {
	h := newHarness(10) // branch i lives in block i+1
	c := h.t.or(h.conj(h.atom(1, 0)), h.conj(h.atom(9, 1)))
	if got, want := h.str(c), "{{b10→1},{b2→0}}"; got != want {
		t.Errorf("canonical order: got %s, want %s", got, want)
	}
	// Within a conjunction, atoms stay in block-ID order.
	c = h.conj(h.atom(9, 0), h.atom(1, 1))
	if got, want := h.str(c), "{{b2→1,b10→0}}"; got != want {
		t.Errorf("conjunction order: got %s, want %s", got, want)
	}
}

// Once the table has interned a result, recomputing it allocates nothing.
func TestCondOpsSteadyStateAllocFree(t *testing.T) {
	h := newHarness(6)
	r := rand.New(rand.NewSource(7))
	var cs []uint32
	for i := 0; i < 32; i++ {
		cs = append(cs, randCond(r, h))
	}
	run := func() {
		for i := range cs {
			d := cs[(i+1)%len(cs)]
			h.t.or(cs[i], d)
			h.t.exclusive(cs[i], d)
			h.t.and(cs[i], h.atom(i%6, i%2))
		}
	}
	run()
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Errorf("steady-state condition operations allocate %.0f times per run", n)
	}
}

// randCond builds a random condition over the harness's branches.
func randCond(r *rand.Rand, h condHarness) uint32 {
	c := h.t.falseC
	nconj := 1 + r.Intn(3)
	for i := 0; i < nconj; i++ {
		cj := h.t.trueC
		for k := 0; k < 1+r.Intn(3); k++ {
			cj = h.t.and(cj, h.atom(r.Intn(len(h.bs)), r.Intn(2)))
		}
		c = h.t.or(c, cj)
	}
	return c
}

// eval evaluates a condition under a truth assignment of branch outcomes.
func evalCond(c Cond, outcome map[*ir.Block]int) bool {
	for _, cj := range c.Disj {
		all := true
		for _, a := range cj {
			if outcome[a.Block] != a.Succ {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// Property: exclusive(c1, c2) implies no outcome satisfies both; and the
// or/and operators agree with boolean evaluation.
func TestCondProperties(t *testing.T) {
	h := newHarness(4)
	r := rand.New(rand.NewSource(12345))
	check := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		c1 := randCond(rr, h)
		c2 := randCond(rr, h)
		or := h.export(h.t.or(c1, c2))
		excl := h.t.exclusive(c1, c2)
		e1c, e2c := h.export(c1), h.export(c2)
		// Enumerate all 2^4 outcomes.
		for m := 0; m < 16; m++ {
			outcome := map[*ir.Block]int{}
			for i, b := range h.bs {
				outcome[b] = (m >> i) & 1
			}
			e1, e2 := evalCond(e1c, outcome), evalCond(e2c, outcome)
			if evalCond(or, outcome) != (e1 || e2) {
				return false
			}
			if excl && e1 && e2 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: r}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// Property: and distributes over the disjunction.
func TestAndProperty(t *testing.T) {
	h := newHarness(4)
	check := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		c := randCond(rr, h)
		bi, s := rr.Intn(len(h.bs)), rr.Intn(2)
		anded := h.export(h.t.and(c, h.atom(bi, s)))
		ce := h.export(c)
		for m := 0; m < 16; m++ {
			outcome := map[*ir.Block]int{}
			for i, b := range h.bs {
				outcome[b] = (m >> i) & 1
			}
			want := evalCond(ce, outcome) && outcome[h.bs[bi]] == s
			if evalCond(anded, outcome) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
