package vm_test

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"dyncc/internal/testgen"
	"dyncc/internal/vm"
)

// fuseSample is a short body every fusion rule touches: a dead copy, a
// compare+branch pair and an immediate-add chain, with attribution and an
// external leader.
func fuseSample() ([]vm.Inst, vm.FuseOptions) {
	code := []vm.Inst{
		{Op: vm.LI, Rd: 1, Imm: 5},
		{Op: vm.MOV, Rd: 2, Rs: 1},
		{Op: vm.ADD, Rd: 3, Rs: 2, Rt: 1},
		{Op: vm.ADDI, Rd: 4, Rs: 3, Imm: 2},
		{Op: vm.ADDI, Rd: 3, Rs: 4, Imm: 3},
		{Op: vm.SLTI, Rd: 4, Rs: 3, Imm: 10},
		{Op: vm.BNEZ, Rs: 4, Target: 8},
		{Op: vm.ADDI, Rd: 3, Rs: 3, Imm: 1},
		{Op: vm.MOV, Rd: vm.RRV, Rs: 3},
		{Op: vm.RET},
	}
	return code, vm.FuseOptions{
		RegionOf: []int16{-1, -1, 0, 0, 0, 0, 0, 0, -1, -1},
		SetupOf:  make([]bool, len(code)),
		Leaders:  []int{8},
	}
}

// TestFuseAllocs is Fuse's allocation budget: on warm pooled scratch it
// allocates exactly the slices it returns (the code, plus the PCMap and
// attribution tables when the caller supplied leaders and attribution).
func TestFuseAllocs(t *testing.T) {
	if vm.RaceEnabled() {
		t.Skip("the race detector makes sync.Pool drop a random share of Puts, so pooled scratch is not reliably warm")
	}
	code, static := fuseSample()
	for _, tc := range []struct {
		name string
		opts vm.FuseOptions
	}{{"stitched", vm.FuseOptions{}}, {"static", static}} {
		res := vm.Fuse(code, tc.opts)
		if res.Stats.InstsAfter >= res.Stats.InstsBefore {
			t.Fatalf("%s: sample did not fuse: %+v", tc.name, res.Stats)
		}
		want := 0
		for _, s := range []any{res.Code, res.PCMap, res.RegionOf, res.SetupOf} {
			if !reflect.ValueOf(s).IsNil() {
				want++
			}
		}
		n := testing.AllocsPerRun(50, func() { vm.Fuse(code, tc.opts) })
		if n != float64(want) {
			t.Errorf("%s: warm Fuse allocates %.1f objects, want %d (one per returned slice)",
				tc.name, n, want)
		}
	}
}

// TestFusePoolHygiene fuses the testgen corpus — static bodies with
// attribution, leaders and entry pcs, and stitched bodies — through the
// pooled scratch in several orders that interleave long and short inputs.
// Every result must deep-equal a fresh-scratch fusion of the same input,
// so no state survives a pool round trip; inputs must come back
// unmodified and earlier results must not change when the scratch is
// reused (nothing returned aliases the pool). Every plan built from an
// input or its fused form must partition the code into blocks whose sums
// match the per-pc costs. Finally several goroutines fuse the corpus at
// once, as concurrent stitches and CompileBatch workers do.
func TestFusePoolHygiene(t *testing.T) {
	seeds := int64(150)
	if testing.Short() {
		seeds = 40
	}
	corpus, err := testgen.FuseCorpus(seeds)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]vm.FuseResult, len(corpus))
	for i, c := range corpus {
		refs[i] = vm.FuseFresh(c.Code, c.Opts)
		for _, seg := range planSubjects(c, refs[i]) {
			if err := vm.CheckPlan(seg); err != nil {
				t.Fatalf("%s (%d pcs): %v", c.Label, len(seg.Code), err)
			}
		}
	}

	idx := make([]int, len(corpus))
	for i := range idx {
		idx[i] = i
	}
	byLen := func(desc bool) []int {
		o := slices.Clone(idx)
		sort.SliceStable(o, func(a, b int) bool {
			la, lb := len(corpus[o[a]].Code), len(corpus[o[b]].Code)
			if desc {
				return la > lb
			}
			return la < lb
		})
		return o
	}
	orders := [][]int{byLen(true), byLen(false)}
	for s := int64(1); s <= 3; s++ {
		o := slices.Clone(idx)
		rand.New(rand.NewSource(s)).Shuffle(len(o), func(a, b int) { o[a], o[b] = o[b], o[a] })
		orders = append(orders, o)
	}

	kept := make([]vm.FuseResult, len(corpus))
	for oi, order := range orders {
		for _, i := range order {
			c := corpus[i]
			before := slices.Clone(c.Code)
			got := vm.Fuse(c.Code, c.Opts)
			if !slices.Equal(c.Code, before) {
				t.Fatalf("order %d, %s: Fuse modified its input", oi, c.Label)
			}
			if !reflect.DeepEqual(got, refs[i]) {
				t.Fatalf("order %d, %s (%d insts): pooled result differs from fresh scratch",
					oi, c.Label, len(c.Code))
			}
			if oi == 0 {
				kept[i] = got
			}
		}
	}
	for i := range kept {
		if !reflect.DeepEqual(kept[i], refs[i]) {
			t.Fatalf("%s: an earlier result changed after the scratch was reused", corpus[i].Label)
		}
	}

	// Concurrent stitches and CompileBatch workers share the pool.
	var wg sync.WaitGroup
	for _, order := range orders[2:] {
		wg.Add(1)
		go func(order []int) {
			defer wg.Done()
			for _, i := range order {
				if got := vm.Fuse(corpus[i].Code, corpus[i].Opts); !reflect.DeepEqual(got, refs[i]) {
					t.Errorf("%s: concurrent pooled result differs from fresh scratch", corpus[i].Label)
					return
				}
			}
		}(order)
	}
	wg.Wait()
}

// planSubjects builds the segments whose plans the hygiene test checks:
// the unfused input and its fused form, with attribution and region-entry
// markers relocated the way codegen relocates them.
func planSubjects(c testgen.FuseCase, fr vm.FuseResult) []*vm.Segment {
	if c.Opts.RegionOf == nil {
		return []*vm.Segment{
			{Name: c.Label, Code: c.Code, Region: 0, Stitched: true},
			{Name: c.Label, Code: fr.Code, Region: 0, Stitched: true},
		}
	}
	in := &vm.Segment{Name: c.Label, Code: c.Code, Region: -1,
		RegionOf: c.Opts.RegionOf, SetupOf: c.Opts.SetupOf}
	out := &vm.Segment{Name: c.Label, Code: fr.Code, Region: -1,
		RegionOf: fr.RegionOf, SetupOf: fr.SetupOf}
	if len(c.Opts.EntryPCs) > 0 {
		in.RegionEntry = make([]int32, len(c.Code))
		out.RegionEntry = make([]int32, len(fr.Code))
		for i := range in.RegionEntry {
			in.RegionEntry[i] = -1
		}
		for i := range out.RegionEntry {
			out.RegionEntry[i] = -1
		}
		for k, pc := range c.Opts.EntryPCs {
			if pc < len(c.Code) {
				in.RegionEntry[pc] = int32(k)
			}
			if at := fr.PCMap[pc]; at < len(fr.Code) {
				out.RegionEntry[at] = int32(k)
			}
		}
	}
	return []*vm.Segment{in, out}
}
