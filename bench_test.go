package dyncc

// Go benchmarks regenerating the paper's evaluation (section 5): one
// benchmark per Table 2 row plus the section 5 register-actions result.
// Each reports the paper's metrics as custom units:
//
//	speedup          asymptotic speedup (static cycles / dynamic cycles)
//	breakeven-uses   uses at which dynamic compilation pays off
//	overhead-cycles  set-up + stitcher cycles
//	cyc/stitched     overhead per stitched instruction (Table 2's last column)
//
// Run: go test -bench=. -benchmem
import (
	"math/rand"
	"testing"

	"dyncc/internal/bench"
	"dyncc/internal/testgen"
)

func reportRow(b *testing.B, f func(bench.Config) (*bench.Measurement, error), cfg bench.Config) {
	b.Helper()
	var m *bench.Measurement
	var err error
	for i := 0; i < b.N; i++ {
		m, err = f(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.Speedup, "speedup")
	b.ReportMetric(float64(m.Breakeven), "breakeven-uses")
	b.ReportMetric(float64(m.Overhead), "overhead-cycles")
	b.ReportMetric(m.CyclesPerStitched, "cyc/stitched")
}

func BenchmarkTable2Calculator(b *testing.B) {
	reportRow(b, bench.Calculator, bench.Config{Uses: 500})
}

func BenchmarkTable2ScalarMatrix(b *testing.B) {
	reportRow(b, bench.ScalarMatrix, bench.Config{Uses: 30})
}

func BenchmarkTable2SparseLarge(b *testing.B) {
	reportRow(b, bench.SparseLarge, bench.Config{Uses: 10})
}

func BenchmarkTable2SparseSmall(b *testing.B) {
	reportRow(b, bench.SparseSmall, bench.Config{Uses: 20})
}

func BenchmarkTable2Dispatcher(b *testing.B) {
	reportRow(b, bench.Dispatcher, bench.Config{Uses: 800})
}

func BenchmarkTable2Sorter4(b *testing.B) {
	reportRow(b, bench.Sorter4, bench.Config{Uses: 3})
}

func BenchmarkTable2Sorter32(b *testing.B) {
	reportRow(b, bench.Sorter32, bench.Config{Uses: 2})
}

// Section 5: the register-actions extension on the calculator.
func BenchmarkRegisterActions(b *testing.B) {
	reportRow(b, bench.Calculator, bench.Config{Uses: 500, RegisterActions: true})
}

// Ablation: the stitcher's value-based peephole disabled (Table 3's
// strength-reduction column contribution).
func BenchmarkAblationNoStrengthReduction(b *testing.B) {
	reportRow(b, bench.ScalarMatrix, bench.Config{Uses: 30, NoStrengthReduction: true})
}

// Compilation-speed benchmarks: the static compile and the dynamic compile
// (stitch) of the cache-lookup region.
func BenchmarkStaticCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := CompileDynamic(cacheLookupSrc); err != nil {
			b.Fatal(err)
		}
	}
}

// churnSources is a deploy-style source mix: tenant programs alternating
// with call-bearing generated programs, the sources a service that
// compiles on every deployment sees.
func churnSources(n int) []string {
	srcs := make([]string, n)
	for j := range srcs {
		if j%2 == 0 {
			srcs[j] = testgen.Tenant(int64(j / 2))
		} else {
			g := rand.New(rand.NewSource(1<<20 + int64(j)))
			srcs[j] = testgen.GenWith(g, testgen.GenOpts{WithCalls: true})
		}
	}
	return srcs
}

// BenchmarkCompileChurn compiles (and closes) one program of the
// deploy-style mix per op, so allocs/op is one deployment's static
// compile.
func BenchmarkCompileChurn(b *testing.B) {
	srcs := churnSources(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := CompileDynamic(srcs[i%len(srcs)])
		if err != nil {
			b.Fatal(err)
		}
		p.Close()
	}
}

func BenchmarkStitch(b *testing.B) {
	p, err := CompileDynamic(cacheLookupSrc)
	if err != nil {
		b.Fatal(err)
	}
	m := p.NewMachine(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m.ResetCounters()
		m.m.Reset() // drops the cached specialization; next call re-stitches
		cache := buildCacheB(b, m, 32, 512, 4)
		b.StartTimer()
		if _, err := m.Call("cacheLookup", 0x12345, cache); err != nil {
			b.Fatal(err)
		}
	}
}

// buildCacheB is buildCache for benchmarks.
func buildCacheB(b *testing.B, m *Machine, blockSize, numLines, assoc int64) int64 {
	b.Helper()
	alloc := func(n int64) int64 {
		a, err := m.Alloc(n)
		if err != nil {
			b.Fatal(err)
		}
		return a
	}
	mem := m.Mem()
	cache := alloc(4)
	lines := alloc(numLines)
	mem[cache+0], mem[cache+1], mem[cache+2], mem[cache+3] = blockSize, numLines, assoc, lines
	for l := int64(0); l < numLines; l++ {
		lineS := alloc(1)
		mem[lines+l] = lineS
		sets := alloc(assoc)
		mem[lineS] = sets
		for w := int64(0); w < assoc; w++ {
			set := alloc(2)
			mem[sets+w] = set
			mem[set] = -1
		}
	}
	return cache
}

// Extra: the paper's Figure 1 cache-lookup example, quantified.
func BenchmarkCacheSimExample(b *testing.B) {
	reportRow(b, bench.CacheSim, bench.Config{Uses: 2000})
}

// Extension (paper section 7): merged one-pass set-up + stitching.
func BenchmarkMergedStitch(b *testing.B) {
	reportRow(b, bench.SparseSmall, bench.Config{Uses: 20, MergedStitch: true})
}
