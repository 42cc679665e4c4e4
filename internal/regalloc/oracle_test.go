package regalloc_test

// Oracle test for the allocator's bitset liveness: the map-based
// dataflow it replaced, checked on the fixed testgen corpus after the
// whole pipeline (the IR codegen allocated: SSA destroyed, switches
// lowered, critical edges split, template holes legalized).

import (
	"math/rand"
	"testing"

	"dyncc/internal/core"
	"dyncc/internal/ir"
	"dyncc/internal/regalloc"
	"dyncc/internal/testgen"
)

// refLiveness is the map-keyed live-in/live-out dataflow the bitsets
// replaced. Hole values are excluded.
func refLiveness(f *ir.Func, hs map[ir.Value]bool) (map[*ir.Block]map[ir.Value]bool, map[*ir.Block]map[ir.Value]bool) {
	use := map[*ir.Block]map[ir.Value]bool{}
	def := map[*ir.Block]map[ir.Value]bool{}
	for _, b := range f.Blocks {
		u, d := map[ir.Value]bool{}, map[ir.Value]bool{}
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a != 0 && !hs[a] && !d[a] {
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
	liveOut := map[*ir.Block]map[ir.Value]bool{}
	for _, b := range f.Blocks {
		liveIn[b] = map[ir.Value]bool{}
		liveOut[b] = map[ir.Value]bool{}
	}
	for changed := true; changed; {
		changed = false
		for k := len(f.Blocks) - 1; k >= 0; k-- {
			b := f.Blocks[k]
			out := liveOut[b]
			for _, s := range b.Succs() {
				for v := range liveIn[s] {
					if !out[v] {
						out[v] = true
						changed = true
					}
				}
			}
			in := liveIn[b]
			for v := range use[b] {
				if !in[v] {
					in[v] = true
					changed = true
				}
			}
			for v := range out {
				if !def[b][v] && !in[v] {
					in[v] = true
					changed = true
				}
			}
		}
	}
	return liveIn, liveOut
}

func sameSet(row ir.Bitset, ref map[ir.Value]bool) bool {
	if row.Len() != len(ref) {
		return false
	}
	for v := range ref {
		if !row.Has(int(v)) {
			return false
		}
	}
	return true
}

func TestLivenessMatchesMapOracle(t *testing.T) {
	s := new(ir.Scratch)
	funcs, gaps := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		for _, src := range []string{
			testgen.Gen(rand.New(rand.NewSource(seed))),
			testgen.GenWith(rand.New(rand.NewSource(seed)), testgen.GenOpts{WithCalls: true}),
			testgen.Tenant(seed),
		} {
			c, err := core.Compile(src, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			c.Runtime.Close()
			for _, f := range c.Module.Funcs {
				// The allocator's holes: hole values whose definitions
				// moved into set-up code.
				holes := ir.NewBitset(f.NumValues())
				hs := map[ir.Value]bool{}
				for _, sr := range c.Splits {
					if sr.Region.Fn != f {
						continue
					}
					for _, h := range sr.Holes {
						if def := f.DefOf(h.V); def != nil && def.Blk != nil && def.Blk.Template {
							holes.Add(int(h.V))
							hs[h.V] = true
						}
					}
				}
				funcs++
				if len(f.Blocks) < f.NumBlockIDs() {
					gaps++
				}
				refIn, refOut := refLiveness(f, hs)
				in, out := regalloc.Liveness(f, holes, s)
				for _, b := range f.Blocks {
					if !sameSet(in.Row(b.ID), refIn[b]) {
						t.Fatalf("%s b%d: live-in differs from the oracle", f.Name, b.ID)
					}
					if !sameSet(out.Row(b.ID), refOut[b]) {
						t.Fatalf("%s b%d: live-out differs from the oracle", f.Name, b.ID)
					}
				}
			}
		}
	}
	if gaps == 0 {
		t.Errorf("none of %d corpus functions has block ID gaps", funcs)
	}
}
