package main

import (
	"fmt"
	"math/rand"

	"dyncc"
	"dyncc/internal/testgen"
)

// fleet-zipf: a fleet of generated tenant programs, all batch-compiled and
// given a machine during set-up; one op is one serve call on a Zipf-ranked
// tenant with a Zipf-ranked key. The key space is larger than the capped
// stitch caches, so eviction keeps forcing set-up and stitching again.
const (
	fleetTenants  = 256
	fleetKeySpace = 512
	fleetCacheCap = 32      // MaxEntries and MachineMaxEntries per region
	fleetWords    = 1 << 16 // machine memory: the data table plus stack headroom
	fleetTableLen = 6
	fleetZipfS    = 1.3
	fleetZipfV    = 1.0
	fleetOps      = 1 << 16 // length of the cyclic op table
	// fleetTraffic seeds the tenant and key of every op.
	fleetTraffic = 1 << 21
)

type fleetTenant struct {
	src   string
	table []int64
	prog  *dyncc.Program
	m     *dyncc.Machine
	va    int64 // table address in m
}

type fleetOp struct {
	tenant int32
	key, x int64
}

type fleet struct {
	l       *layers
	tenants []fleetTenant
	ops     []fleetOp
	want    []int64 // reference results, filled on first check
	wantErr error
}

func newFleet(seed int64) *fleet {
	w := &fleet{tenants: make([]fleetTenant, fleetTenants), ops: make([]fleetOp, fleetOps)}
	// The fleet's programs are the same for every seed, as a service's
	// hosted programs are, and so is the order in which its tenants and
	// keys are hit: which ops miss the capped caches, and so which
	// tenants' VM heaps run out, is the same from seed to seed. The seed
	// draws the tenants' data and every op's input. Tenant i is
	// testgen.Tenant(i), the fleet bench.Serve builds.
	r := rand.New(rand.NewSource(seed))
	for i := range w.tenants {
		t := &w.tenants[i]
		t.src = testgen.Tenant(int64(i))
		t.table = make([]int64, fleetTableLen)
		for j := range t.table {
			t.table[j] = int64(r.Intn(200) - 100)
		}
	}
	tr := rand.New(rand.NewSource(fleetTraffic))
	tz := rand.NewZipf(tr, fleetZipfS, fleetZipfV, fleetTenants-1)
	kz := rand.NewZipf(tr, fleetZipfS, fleetZipfV, fleetKeySpace-1)
	for i := range w.ops {
		w.ops[i] = fleetOp{tenant: int32(tz.Uint64()), key: int64(kz.Uint64()), x: int64(r.Intn(2001) - 1000)}
	}
	return w
}

func (w *fleet) setup(l *layers, parent int32) error {
	w.l = l
	srcs := make([]string, len(w.tenants))
	for i := range w.tenants {
		srcs[i] = w.tenants[i].src
	}
	br, err := l.compileBatch(srcs, dyncc.Config{
		Dynamic: true, Optimize: true,
		CompileWorkers: 1,
		Cache:          dyncc.CacheOptions{MaxEntries: fleetCacheCap, MachineMaxEntries: fleetCacheCap},
	}, parent)
	if err != nil {
		return err
	}
	for i := range w.tenants {
		t := &w.tenants[i]
		t.prog = br.Programs[i]
		t.m = l.newMachine(t.prog, fleetWords, parent, -1)
		if t.va, err = t.m.Alloc(fleetTableLen); err != nil {
			return err
		}
		copy(t.m.Mem()[t.va:], t.table)
	}
	return nil
}

func (w *fleet) op(i int, root int32) (int64, error) {
	o := &w.ops[i%len(w.ops)]
	t := &w.tenants[o.tenant]
	return w.l.call(t.m, root, int32(i), testgen.TenantEntry, t.va, fleetTableLen, o.key, o.x)
}

func (w *fleet) probe(i int) counts {
	t := &w.tenants[w.ops[i%len(w.ops)].tenant]
	var c counts
	c.addMachine(t.m, t.prog.NumRegions())
	return c
}

func (w *fleet) totals() counts {
	var c counts
	for i := range w.tenants {
		c.addProgram(w.tenants[i].prog)
		c.addMachine(w.tenants[i].m, w.tenants[i].prog.NumRegions())
	}
	return c
}

func (w *fleet) teardown() {
	for i := range w.tenants {
		w.l.close(w.tenants[i].prog, -1, -1)
		w.tenants[i].prog, w.tenants[i].m = nil, nil
	}
}

func (w *fleet) expected(i int) (int64, error) {
	if w.want == nil && w.wantErr == nil {
		w.want, w.wantErr = w.reference()
	}
	if w.wantErr != nil {
		return 0, w.wantErr
	}
	return w.want[i%len(w.ops)], nil
}

// reference interprets every op of the table on its tenant's unoptimized
// IR, one tenant at a time.
func (w *fleet) reference() ([]int64, error) {
	byTenant := make([][]int, len(w.tenants))
	for j, o := range w.ops {
		byTenant[o.tenant] = append(byTenant[o.tenant], j)
	}
	want := make([]int64, len(w.ops))
	for ti, js := range byTenant {
		if len(js) == 0 {
			continue
		}
		t := &w.tenants[ti]
		mod, err := reference(t.src)
		if err != nil {
			return nil, fmt.Errorf("tenant %d: %w", ti, err)
		}
		env := refEnv(mod, fleetTableLen, len(js))
		h := refHeap{env}
		va, err := h.Alloc(fleetTableLen)
		if err != nil {
			return nil, err
		}
		copy(env.Mem[va:], t.table)
		for _, j := range js {
			o := w.ops[j]
			if want[j], err = env.CallFunc(testgen.TenantEntry, va, fleetTableLen, o.key, o.x); err != nil {
				return nil, fmt.Errorf("tenant %d reference: %w", ti, err)
			}
		}
	}
	return want, nil
}
