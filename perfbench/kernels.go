package main

import (
	"fmt"
	"math"
	"math/rand"

	"dyncc"
	"dyncc/internal/bench"
	"dyncc/internal/ir"
	"dyncc/internal/testgen"
)

// kernels-steady: the paper's Table 2 kernels, an annotation-stripped
// subject the runtime promotes on its own, and a helper-heavy keyed region
// that needs inlining. Each subject has one machine and a small fixed key
// set that fits every cache, so after warm-up every call is a warm hit.
const (
	kernelWords   = 1 << 16
	kernelOps     = 1 << 12 // length of the cyclic op table
	sorterRecs    = 16
	sorterKeys    = 4
	scalarN       = 256
	sparseN       = 96
	sparsePerRow  = 5
	autoN         = 8
	inlineN       = 8
	cacheLines    = 512
	cacheAssoc    = 4
	cacheBlock    = 32
	cacheWarmTags = 64
)

// autoSrc is the automatic-promotion subject: this annotated kernel with its
// annotations stripped, so only profile-guided promotion specializes it.
const autoSrc = `
int kernel(int k, int n, int *a) {
    int s;
    s = 0;
    dynamicRegion key(k, n) () {
        int i;
        unrolled for (i = 0; i < n; i++) {
            s = s + a[i] * k;
        }
    }
    return s;
}`

// inlineSrc is the helper-heavy keyed region: every element goes through a
// two-deep helper chain that only inlining removes from the stitched code.
const inlineSrc = `
int mad(int k, int v) {
    return k * v + (v >> 1);
}

int mix(int k, int v) {
    return (k ^ v) + mad(k, v);
}

int apply(int *a, int n, int k) {
    int i;
    int s;
    s = 0;
    dynamicRegion key(k) (a, n) {
        unrolled for (i = 0; i < n; i++) {
            s = s + mix(k, a[i]);
        }
    }
    return s;
}`

// subject is one kernel: its program, how to lay out its fixed data, how
// to turn an op's input into call arguments (writing any per-op input into
// memory), and how to reduce the call to one checkable result.
type subject struct {
	name, src, fn string
	auto          bool
	weight        int // ops of this subject in every block of the op table
	data          func(h heap) ([]int64, error)
	args          func(h heap, d []int64, in int64, buf []int64) []int64
	result        func(h heap, d []int64, ret int64) int64
}

// checksum folds n words of memory at a into one value.
func checksum(mem []int64, a, n int64) int64 {
	var s int64
	for j := int64(0); j < n; j++ {
		s = s*1000003 + mem[a+j]
	}
	return s
}

func retval(_ heap, _ []int64, ret int64) int64 { return ret }

func allocAll(h heap, sizes ...int64) ([]int64, error) {
	d := make([]int64, len(sizes))
	for i, n := range sizes {
		a, err := h.Alloc(n)
		if err != nil {
			return nil, err
		}
		d[i] = a
	}
	return d, nil
}

// subjects builds the kernel set; fixed data (guard tables, matrices,
// key sets, warm cache tags) comes from r.
func subjects(r *rand.Rand) []subject {
	type guard struct{ ptype, parg, w int64 }
	guards := make([]guard, 10)
	for i := range guards {
		g := guard{ptype: int64(i % 4), w: int64(r.Intn(50) + 1)}
		switch g.ptype {
		case 0, 1:
			g.parg = int64(r.Intn(64))
		case 2:
			g.parg = int64(1) << r.Intn(8)
		default:
			g.parg = int64(r.Intn(128) + 1)
		}
		guards[i] = g
	}
	warm := make([]int64, cacheWarmTags)
	for i := range warm {
		warm[i] = int64(r.Intn(200)) * 1024
	}
	scalarSrc := make([]int64, scalarN)
	for i := range scalarSrc {
		scalarSrc[i] = int64(r.Intn(1000))
	}
	scalars := [4]int64{}
	for i := range scalars {
		scalars[i] = int64(r.Intn(99) + 2)
	}
	type nz struct {
		col int64
		val float64
	}
	matrix := make([]nz, sparseN*sparsePerRow)
	for i := range matrix {
		matrix[i] = nz{col: int64(r.Intn(sparseN)), val: float64(r.Intn(1000))/100 - 5}
	}
	autoK := int64(r.Intn(7) + 2)
	inlineA := make([]int64, inlineN)
	for i := range inlineA {
		inlineA[i] = int64(r.Intn(100))
	}
	inlineKs := [3]int64{int64(r.Intn(50)), int64(r.Intn(50) + 50), int64(r.Intn(50) + 100)}

	return []subject{{
		name: "calculator", weight: 2, src: bench.CalcSource, fn: "calcEval",
		data: func(h heap) ([]int64, error) {
			d, err := allocAll(h, int64(2*len(bench.CalcExpr)))
			if err != nil {
				return nil, err
			}
			for i, cell := range bench.CalcExpr {
				h.Mem()[d[0]+int64(2*i)], h.Mem()[d[0]+int64(2*i+1)] = cell[0], cell[1]
			}
			return d, nil
		},
		args: func(_ heap, d []int64, in int64, buf []int64) []int64 {
			return append(buf, d[0], int64(len(bench.CalcExpr)), in%97-48, (in/97)%89-41)
		},
		result: retval,
	}, {
		name: "dispatcher", weight: 2, src: bench.DispatchSource, fn: "dispatch",
		data: func(h heap) ([]int64, error) {
			d, err := allocAll(h, int64(3*len(guards)))
			if err != nil {
				return nil, err
			}
			for i, g := range guards {
				copy(h.Mem()[d[0]+int64(3*i):], []int64{g.ptype, g.parg, g.w})
			}
			return d, nil
		},
		args: func(_ heap, d []int64, in int64, buf []int64) []int64 {
			return append(buf, d[0], int64(len(guards)), in%257, (in/257)%1000)
		},
		result: retval,
	}, {
		name: "record sorter", weight: 1, src: bench.SorterSource, fn: "sortRecords",
		data: func(h heap) ([]int64, error) {
			d, err := allocAll(h, sorterKeys, sorterRecs*sorterKeys)
			if err != nil {
				return nil, err
			}
			for k := int64(0); k < sorterKeys; k++ {
				h.Mem()[d[0]+k] = k % 4 // int asc, int desc, unsigned, boolean
			}
			return d, nil
		},
		args: func(h heap, d []int64, in int64, buf []int64) []int64 {
			x := uint64(in) | 1
			mem := h.Mem()
			for j := int64(0); j < sorterRecs*sorterKeys; j++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				v := int64(x % 1000)
				switch j % sorterKeys {
				case 0:
					v %= 4 // low cardinality: later keys decide ties
				case 3:
					v &= 1
				}
				mem[d[1]+j] = v
			}
			return append(buf, d[1], sorterKeys, sorterRecs, d[0], sorterKeys)
		},
		result: func(h heap, d []int64, _ int64) int64 {
			return checksum(h.Mem(), d[1], sorterRecs*sorterKeys)
		},
	}, {
		name: "cache lookup", weight: 2, src: bench.CacheSimSource, fn: "cacheLookup",
		data: func(h heap) ([]int64, error) {
			d, err := allocAll(h, 4, cacheLines)
			if err != nil {
				return nil, err
			}
			mem := h.Mem()
			cache, lines := d[0], d[1]
			copy(mem[cache:], []int64{cacheBlock, cacheLines, cacheAssoc, lines})
			for l := int64(0); l < cacheLines; l++ {
				ls, err := allocAll(h, 1, cacheAssoc)
				if err != nil {
					return nil, err
				}
				mem[lines+l], mem[ls[0]] = ls[0], ls[1]
				for s := int64(0); s < cacheAssoc; s++ {
					set, err := h.Alloc(2)
					if err != nil {
						return nil, err
					}
					mem[ls[1]+s], mem[set] = set, -1
				}
			}
			for i, addr := range warm {
				tag := addr / (cacheBlock * cacheLines)
				line := (addr / cacheBlock) % cacheLines
				sets := mem[mem[lines+line]]
				mem[mem[sets+int64(i)%cacheAssoc]] = tag
			}
			return d, nil
		},
		args: func(_ heap, d []int64, in int64, buf []int64) []int64 {
			return append(buf, (in%200)*1024, d[0])
		},
		result: retval,
	}, {
		name: "scalar-matrix", weight: 1, src: bench.ScalarSource, fn: "smm",
		data: func(h heap) ([]int64, error) {
			d, err := allocAll(h, scalarN, scalarN)
			if err != nil {
				return nil, err
			}
			copy(h.Mem()[d[0]:], scalarSrc)
			return d, nil
		},
		args: func(_ heap, d []int64, in int64, buf []int64) []int64 {
			return append(buf, d[0], d[1], scalarN, scalars[in%int64(len(scalars))])
		},
		result: func(h heap, d []int64, _ int64) int64 {
			return checksum(h.Mem(), d[1], scalarN)
		},
	}, {
		name: "sparse", weight: 1, src: bench.SparseSource, fn: "spmv",
		data: func(h heap) ([]int64, error) {
			nnz := int64(len(matrix))
			d, err := allocAll(h, sparseN+1, nnz, nnz, sparseN, sparseN)
			if err != nil {
				return nil, err
			}
			mem := h.Mem()
			for row := int64(0); row <= sparseN; row++ {
				mem[d[0]+row] = row * sparsePerRow
			}
			for k, e := range matrix {
				mem[d[1]+int64(k)] = e.col
				mem[d[2]+int64(k)] = int64(math.Float64bits(e.val))
			}
			return d, nil
		},
		args: func(h heap, d []int64, in int64, buf []int64) []int64 {
			mem := h.Mem()
			for j := int64(0); j < sparseN; j++ {
				mem[d[3]+j] = int64(math.Float64bits(float64((j*7+in)%13) - 6))
			}
			return append(buf, d[0], d[1], d[2], d[3], d[4], sparseN)
		},
		result: func(h heap, d []int64, _ int64) int64 {
			return checksum(h.Mem(), d[4], sparseN)
		},
	}, {
		name: "autoregion", weight: 2, src: testgen.StripAnnotations(autoSrc), fn: "kernel", auto: true,
		data: func(h heap) ([]int64, error) { return allocAll(h, autoN) },
		args: func(h heap, d []int64, in int64, buf []int64) []int64 {
			for j := int64(0); j < autoN; j++ {
				h.Mem()[d[0]+j] = (in>>j)%50 - 25
			}
			return append(buf, autoK, autoN, d[0])
		},
		result: retval,
	}, {
		name: "inline", weight: 2, src: inlineSrc, fn: "apply",
		data: func(h heap) ([]int64, error) {
			d, err := allocAll(h, inlineN)
			if err != nil {
				return nil, err
			}
			copy(h.Mem()[d[0]:], inlineA)
			return d, nil
		},
		args: func(_ heap, d []int64, in int64, buf []int64) []int64 {
			return append(buf, d[0], inlineN, inlineKs[in%int64(len(inlineKs))])
		},
		result: retval,
	}}
}

type kernelOp struct {
	subj int
	in   int64
}

// kernelState is one subject's program and machine.
type kernelState struct {
	prog *dyncc.Program
	m    *dyncc.Machine
	data []int64
}

type kernels struct {
	l     *layers
	subj  []subject
	state []kernelState
	ops   []kernelOp
	want  []int64
	known []bool
	refs  []*ir.Module // reference modules, compiled on first use
	buf   [8]int64     // call arguments, reused so ops allocate nothing here
}

func newKernels(seed int64) *kernels {
	r := rand.New(rand.NewSource(seed))
	w := &kernels{subj: subjects(r), ops: make([]kernelOp, kernelOps),
		want: make([]int64, kernelOps), known: make([]bool, kernelOps)}
	w.refs = make([]*ir.Module, len(w.subj))
	// Every block of ops holds each subject its weight's number of times,
	// in a seeded order, so the mix is the same for every seed. The short
	// subjects weigh twice the long ones: the median op then falls among
	// their spread of costs, where it moves smoothly with host speed,
	// rather than on one subject's cost, where it jumps.
	var block []int
	for i, s := range w.subj {
		for k := 0; k < s.weight; k++ {
			block = append(block, i)
		}
	}
	for i := 0; i < len(w.ops); i += len(block) {
		for k, j := range r.Perm(len(block)) {
			if i+k < len(w.ops) {
				w.ops[i+k] = kernelOp{subj: block[j], in: r.Int63n(1 << 40)}
			}
		}
	}
	return w
}

func (w *kernels) setup(l *layers, parent int32) error {
	w.l = l
	w.state = make([]kernelState, len(w.subj))
	for i, s := range w.subj {
		p, err := l.compile(s.src, dyncc.Config{Dynamic: true, Optimize: true, AutoRegion: s.auto}, parent, -1)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		st := &w.state[i]
		st.prog, st.m = p, l.newMachine(p, kernelWords, parent, -1)
		if st.data, err = s.data(st.m); err != nil {
			return fmt.Errorf("%s data: %w", s.name, err)
		}
	}
	return nil
}

func (w *kernels) op(i int, root int32) (int64, error) {
	o := w.ops[i%len(w.ops)]
	s, st := &w.subj[o.subj], &w.state[o.subj]
	ret, err := w.l.call(st.m, root, int32(i), s.fn, s.args(st.m, st.data, o.in, w.buf[:0])...)
	if err != nil {
		return 0, err
	}
	return s.result(st.m, st.data, ret), nil
}

func (w *kernels) probe(i int) counts {
	st := &w.state[w.ops[i%len(w.ops)].subj]
	var c counts
	c.addMachine(st.m, st.prog.NumRegions())
	return c
}

func (w *kernels) totals() counts {
	var c counts
	for _, st := range w.state {
		c.addProgram(st.prog)
		c.addMachine(st.m, st.prog.NumRegions())
	}
	return c
}

func (w *kernels) teardown() {
	for _, st := range w.state {
		w.l.close(st.prog, -1, -1)
	}
	w.state = nil
}

// expected interprets op i's subject on its unoptimized IR, in a fresh
// interpreter with the same data layout.
func (w *kernels) expected(i int) (int64, error) {
	j := i % len(w.ops)
	if w.known[j] {
		return w.want[j], nil
	}
	o := w.ops[j]
	s := &w.subj[o.subj]
	if w.refs[o.subj] == nil {
		mod, err := reference(s.src)
		if err != nil {
			return 0, err
		}
		w.refs[o.subj] = mod
	}
	h := refHeap{refEnv(w.refs[o.subj], 1<<14, 1<<12)}
	d, err := s.data(h)
	if err != nil {
		return 0, err
	}
	ret, err := h.env.CallFunc(s.fn, s.args(h, d, o.in, nil)...)
	if err != nil {
		return 0, fmt.Errorf("%s reference: %w", s.name, err)
	}
	w.want[j], w.known[j] = s.result(h, d, ret), true
	return w.want[j], nil
}
