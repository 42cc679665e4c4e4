package core_test

import (
	"testing"

	"dyncc/internal/core"
	"dyncc/internal/testgen"
)

// raceEnabled is set under -race, whose instrumentation allocates.
var raceEnabled bool

// compileAllocBudget is the measured number of allocations of one
// optimizing, dynamic Compile of tenant program 2 (a templating tenant:
// an unrolled render loop in a keyed region), go1.24 on amd64. With
// per-value and per-block maps on the compile path the same compile made
// 1 328 allocations.
const compileAllocBudget = 636

// TestCompileAllocBudget pins the static compile's allocations: a change
// that brings back per-pass or per-function tables fails here, not in a
// profile. If a change lowers the count, lower the budget with it.
func TestCompileAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	src := testgen.Tenant(2)
	n := testing.AllocsPerRun(20, func() {
		c, err := core.Compile(src, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		c.Runtime.Close()
	})
	t.Logf("%.0f allocations per Compile (budget %d)", n, compileAllocBudget)
	if n > compileAllocBudget {
		t.Errorf("Compile allocates %.0f times, budget %d", n, compileAllocBudget)
	}
}
