package core_test

import (
	"math/rand"
	"testing"

	"dyncc/internal/analysis"
	"dyncc/internal/bench"
	"dyncc/internal/core"
	"dyncc/internal/ir"
	"dyncc/internal/testgen"
)

// analyzeSubjects are the regions BenchmarkAnalyze and TestAnalyzeAllocs
// measure, as split.Split receives them: the event dispatcher under the
// Table 2 configuration (no inlining) and a call-bearing corpus program
// with its helpers grafted into the region.
func analyzeSubjects(tb testing.TB) []struct {
	name string
	f    *ir.Func
	r    *ir.Region
} {
	tb.Helper()
	table2 := core.DefaultConfig()
	table2.InlineBudget = -1
	srcs := []struct {
		name, src string
		cfg       core.Config
	}{
		{"dispatcher", bench.DispatchSource, table2},
		{"calls", testgen.GenWith(rand.New(rand.NewSource(callsSeed)), testgen.GenOpts{WithCalls: true}), core.DefaultConfig()},
	}
	var out []struct {
		name string
		f    *ir.Func
		r    *ir.Region
	}
	for _, s := range srcs {
		mod, err := core.PreSplitModule(s.src, s.cfg)
		if err != nil {
			tb.Fatalf("%s: %v", s.name, err)
		}
		n := 0
		for _, f := range mod.Funcs {
			for _, r := range f.Regions {
				out = append(out, struct {
					name string
					f    *ir.Func
					r    *ir.Region
				}{s.name, f, r})
				n++
			}
		}
		if n != 1 {
			tb.Fatalf("%s: %d regions, want 1", s.name, n)
		}
	}
	return out
}

const callsSeed = 7

func BenchmarkAnalyze(b *testing.B) {
	for _, s := range analyzeSubjects(b) {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := analysis.Analyze(s.f, s.r, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAnalyzeAllocs bounds the analysis's allocations per call at 1.5x
// their measured figure (go1.24, amd64), so a return to per-operation
// allocation in the condition fixpoint fails here rather than in a
// profile. With conditions keyed by formatted strings, the same calls made
// 14 491 (dispatcher) and 2 374 (calls) allocations.
func TestAnalyzeAllocs(t *testing.T) {
	bound := map[string]float64{
		"dispatcher": 1.5 * 68,
		"calls":      1.5 * 59,
	}
	for _, s := range analyzeSubjects(t) {
		n := testing.AllocsPerRun(20, func() {
			if _, err := analysis.Analyze(s.f, s.r, nil, nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per Analyze", s.name, n)
		if n > bound[s.name] {
			t.Errorf("%s: Analyze allocates %.0f times per call, bound %.0f", s.name, n, bound[s.name])
		}
	}
}
