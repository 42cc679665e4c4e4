package ir_test

// Oracle tests for the dense per-function tables: map-based reference
// implementations of dominators, dominance frontiers and pre-SSA
// liveness, checked against the dense ones on the fixed testgen corpus.
// Lowering removes unreachable blocks, so the corpus functions have gaps
// in their block IDs; the optimized copies lose more blocks to branch
// folding.

import (
	"math/rand"
	"slices"
	"testing"

	"dyncc/internal/ir"
	"dyncc/internal/lower"
	"dyncc/internal/opt"
	"dyncc/internal/parser"
	"dyncc/internal/testgen"
)

// corpusSources is the fixed source corpus: generated programs with and
// without calls, and tenant programs.
func corpusSources() []string {
	var srcs []string
	for seed := int64(1); seed <= 40; seed++ {
		srcs = append(srcs,
			testgen.Gen(rand.New(rand.NewSource(seed))),
			testgen.GenWith(rand.New(rand.NewSource(seed)), testgen.GenOpts{WithCalls: true}),
			testgen.Tenant(seed))
	}
	return srcs
}

// corpusFuncs lowers every corpus source. With ssa set, each function is
// also put in SSA form and optimized.
func corpusFuncs(t *testing.T, ssa bool) []*ir.Func {
	t.Helper()
	var fs []*ir.Func
	for _, src := range corpusSources() {
		file, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := lower.Lower(file, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range mod.Funcs {
			if ssa {
				ir.BuildSSA(f, nil)
				opt.Optimize(f)
			}
			fs = append(fs, f)
		}
	}
	return fs
}

// refDom is the map-keyed Cooper/Harvey/Kennedy computation the dense
// DomTree replaced.
type refDom struct {
	idom     map[*ir.Block]*ir.Block
	children map[*ir.Block][]*ir.Block
	frontier map[*ir.Block][]*ir.Block
}

func buildRefDom(f *ir.Func) refDom {
	rpo := (*ir.Scratch)(nil).ReversePostorder(f)
	idx := map[*ir.Block]int{}
	for i, b := range rpo {
		idx[b] = i
	}
	idom := map[*ir.Block]*ir.Block{}
	entry := f.Entry()
	idom[entry] = entry
	intersect := func(a, b *ir.Block) *ir.Block {
		for a != b {
			for idx[a] > idx[b] {
				a = idom[a]
			}
			for idx[b] > idx[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == entry {
				continue
			}
			var newIdom *ir.Block
			for _, p := range b.Preds {
				if idom[p] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	idom[entry] = nil
	d := refDom{idom: idom, children: map[*ir.Block][]*ir.Block{}, frontier: map[*ir.Block][]*ir.Block{}}
	for _, b := range rpo {
		if p := idom[b]; p != nil {
			d.children[p] = append(d.children[p], b)
		}
	}
	for _, b := range rpo {
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			if _, ok := idx[p]; !ok {
				continue
			}
			for runner := p; runner != nil && runner != idom[b]; runner = idom[runner] {
				if !slices.Contains(d.frontier[runner], b) {
					d.frontier[runner] = append(d.frontier[runner], b)
				}
			}
		}
	}
	return d
}

// refLiveIn is the map-keyed pre-SSA live-in dataflow the dense
// blockLiveIn replaced.
func refLiveIn(f *ir.Func) map[*ir.Block]map[ir.Value]bool {
	use := map[*ir.Block]map[ir.Value]bool{}
	def := map[*ir.Block]map[ir.Value]bool{}
	for _, b := range f.Blocks {
		u, d := map[ir.Value]bool{}, map[ir.Value]bool{}
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a != 0 && !d[a] {
					u[a] = true
				}
			}
			if in.Dst != 0 {
				d[in.Dst] = true
			}
		}
		use[b], def[b] = u, d
	}
	liveIn := map[*ir.Block]map[ir.Value]bool{}
	for _, b := range f.Blocks {
		liveIn[b] = map[ir.Value]bool{}
	}
	for changed := true; changed; {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			in := liveIn[b]
			for _, s := range b.Succs() {
				for v := range liveIn[s] {
					if !def[b][v] && !in[v] {
						in[v] = true
						changed = true
					}
				}
			}
			for v := range use[b] {
				if !in[v] {
					in[v] = true
					changed = true
				}
			}
		}
	}
	return liveIn
}

// hasIDGaps reports whether f's block IDs skip a number.
func hasIDGaps(f *ir.Func) bool { return len(f.Blocks) < f.NumBlockIDs() }

func TestDomTreeMatchesMapOracle(t *testing.T) {
	s := new(ir.Scratch)
	for _, ssa := range []bool{false, true} {
		gaps := 0
		for _, f := range corpusFuncs(t, ssa) {
			if hasIDGaps(f) {
				gaps++
			}
			ref := buildRefDom(f)
			for _, dt := range []*ir.DomTree{ir.BuildDomTree(f, nil), ir.BuildDomTree(f, s)} {
				for _, b := range f.Blocks {
					if got, want := dt.Idom(b), ref.idom[b]; got != want {
						t.Fatalf("%s b%d (ssa=%v): idom %v, oracle %v", f.Name, b.ID, ssa, got, want)
					}
					if got, want := dt.Children(b), ref.children[b]; !slices.Equal(got, want) {
						t.Fatalf("%s b%d (ssa=%v): children %v, oracle %v", f.Name, b.ID, ssa, got, want)
					}
					if got, want := dt.Frontier(b), ref.frontier[b]; !slices.Equal(got, want) {
						t.Fatalf("%s b%d (ssa=%v): frontier %v, oracle %v", f.Name, b.ID, ssa, got, want)
					}
					for _, c := range f.Blocks {
						want := false
						for x := c; x != nil; x = ref.idom[x] {
							if x == b {
								want = true
							}
						}
						if dt.Dominates(b, c) != want {
							t.Fatalf("%s (ssa=%v): Dominates(b%d, b%d) = %v, oracle %v",
								f.Name, ssa, b.ID, c.ID, !want, want)
						}
					}
				}
			}
		}
		if gaps == 0 {
			t.Errorf("ssa=%v: no corpus function has block ID gaps", ssa)
		}
	}
}

func TestBlockLiveInMatchesMapOracle(t *testing.T) {
	s := new(ir.Scratch)
	gaps := 0
	for _, f := range corpusFuncs(t, false) {
		if hasIDGaps(f) {
			gaps++
		}
		ref := refLiveIn(f)
		live := ir.BlockLiveIn(f, s)
		for _, b := range f.Blocks {
			row := live.Row(b.ID)
			if row.Len() != len(ref[b]) {
				t.Fatalf("%s b%d: %d live-in values, oracle %d", f.Name, b.ID, row.Len(), len(ref[b]))
			}
			for v := range ref[b] {
				if !row.Has(int(v)) {
					t.Fatalf("%s b%d: v%d live in by the oracle only", f.Name, b.ID, v)
				}
			}
		}
	}
	if gaps == 0 {
		t.Error("no corpus function has block ID gaps")
	}
}

// TestScratchPerWorker builds SSA and verifies the corpus on two workers,
// each with its own Scratch, and requires the IR of a serial build: a
// table shared between scratches (a package-level pool, say) shows up as a
// difference here, or under -race as a data race.
func TestScratchPerWorker(t *testing.T) {
	build := func(s *ir.Scratch, src string) string {
		file, err := parser.Parse(src)
		if err != nil {
			t.Error(err)
			return ""
		}
		mod, err := lower.Lower(file, nil)
		if err != nil {
			t.Error(err)
			return ""
		}
		out := ""
		for _, f := range mod.Funcs {
			ir.BuildSSA(f, s)
			if err := ir.Verify(f, s); err != nil {
				t.Error(err)
			}
			out += f.String()
		}
		return out
	}
	srcs := corpusSources()
	want := make([]string, len(srcs))
	for i, src := range srcs {
		want[i] = build(nil, src)
	}
	got := make([]string, len(srcs))
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			s := new(ir.Scratch)
			for i := w; i < len(srcs); i += 2 {
				got[i] = build(s, srcs[i])
			}
		}()
	}
	<-done
	<-done
	for i := range srcs {
		if got[i] != want[i] {
			t.Fatalf("source %d: IR built on a worker's scratch differs from the serial build", i)
		}
	}
}
