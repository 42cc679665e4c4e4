package main

import (
	"fmt"
	"math/rand"
	"strings"

	"dyncc"
	"dyncc/internal/testgen"
)

// deploy-churn: one op is one deployment — compile a program, create a
// small machine, make a few calls over a few keys, close. Programs are
// tenant programs and call-bearing generated programs; all deployments of
// a repetition share one in-memory L0 store, and a fixed share of ops
// redeploy an earlier source, which the store serves without stitching.
const (
	deployWords    = 1 << 12
	deployBaseline = 64   // sources deployed during set-up
	deployOps      = 1000 // ops in one repetition
	deployRedeploy = 4    // one op in deployRedeploy redeploys an earlier source
	genMaxN        = 6    // generated programs take an array of 1..6 words
	// genPool offsets the generator seeds of the generated programs and
	// seeds the redeploy schedule. Its pool holds source 165, which the
	// optimizing compile gets wrong (README, "Known defects"); every
	// repetition deploys it.
	genPool = 1 << 20
)

// deploySource is one deployable program with its inputs: its data words,
// two keys and two varying inputs, called in every key × input pair.
type deploySource struct {
	src    string
	tenant bool // testgen.Tenant program; otherwise testgen.GenWith(WithCalls)
	data   []int64
	keys   [2]int64
	xs     [2]int64
}

type deploy struct {
	l       *layers
	store   *dyncc.MemStore
	sources []deploySource
	sched   []int32 // op i deploys sources[sched[i]]
	tot     counts  // counters of every closed deployment
	want    map[int32]int64
}

func newDeploy(seed int64) *deploy {
	r := rand.New(rand.NewSource(seed))
	w := &deploy{sched: make([]int32, deployOps), want: map[int32]int64{}}
	// Every deployRedeploy-th op redeploys an earlier source; the others
	// deploy fresh sources in order. Like the programs, the schedule is
	// the same for every seed: it comes from a stream of its own.
	sr := rand.New(rand.NewSource(genPool))
	next := int32(deployBaseline)
	for i := range w.sched {
		if i%deployRedeploy == deployRedeploy-1 {
			w.sched[i] = sr.Int31n(next)
		} else {
			w.sched[i] = next
			next++
		}
	}
	// Source j is the same program, with the same array length, for every
	// seed, so every seed deploys the same programs in the same order; the
	// seed draws every deployment's data, keys and inputs.
	w.sources = make([]deploySource, next)
	for j := range w.sources {
		s := &w.sources[j]
		if j%2 == 0 {
			s.tenant = true
			s.src = testgen.Tenant(int64(j / 2))
			s.data = make([]int64, 6)
			s.keys = [2]int64{int64(r.Intn(512)), int64(r.Intn(512))}
		} else {
			// The array length bounds the program's unrolled loops, so it
			// belongs to the program: it comes from the generator's stream,
			// as the differential tests draw it, not from the seed.
			g := rand.New(rand.NewSource(genPool + int64(j)))
			s.src = testgen.GenWith(g, testgen.GenOpts{WithCalls: true})
			s.data = make([]int64, 1+g.Intn(genMaxN))
			s.keys = [2]int64{int64(r.Intn(1025) - 512), int64(r.Intn(1025) - 512)}
			if !strings.Contains(s.src, "key(c") {
				// c is a run-time constant but not a key: the program
				// promises it never changes, so both calls use one value.
				s.keys[1] = s.keys[0]
			}
		}
		for k := range s.data {
			s.data[k] = int64(r.Intn(200) - 100)
		}
		s.xs = [2]int64{int64(r.Intn(2001) - 1000), int64(r.Intn(2001) - 1000)}
	}
	return w
}

func (w *deploy) config() dyncc.Config {
	return dyncc.Config{Dynamic: true, Optimize: true, Cache: dyncc.CacheOptions{Store: w.store}}
}

// setup starts a fresh store and deploys the baseline sources into it.
func (w *deploy) setup(l *layers, parent int32) error {
	w.l, w.store, w.tot = l, dyncc.NewMemStore(), counts{}
	for j := int32(0); j < deployBaseline; j++ {
		if _, err := w.deploy(j, parent, -1); err != nil {
			return fmt.Errorf("baseline source %d: %w", j, err)
		}
	}
	return nil
}

func (w *deploy) op(i int, root int32) (int64, error) {
	return w.deploy(w.sched[i], root, int32(i))
}

// deploy runs one deployment of source j and folds its call results.
func (w *deploy) deploy(j, parent, op int32) (int64, error) {
	s := &w.sources[j]
	p, err := w.l.compile(s.src, w.config(), parent, op)
	if err != nil {
		return 0, err
	}
	m := w.l.newMachine(p, deployWords, parent, op)
	h, err := s.run(m, func(fn string, args ...int64) (int64, error) {
		return w.l.call(m, parent, op, fn, args...)
	})
	w.l.close(p, parent, op)
	w.tot.addProgram(p)
	w.tot.addMachine(m, p.NumRegions())
	return h, err
}

// run lays out the source's data in h and makes its calls through call,
// folding the results into one value.
func (s *deploySource) run(h heap, call func(fn string, args ...int64) (int64, error)) (int64, error) {
	n := int64(len(s.data))
	a, err := h.Alloc(n)
	if err != nil {
		return 0, err
	}
	copy(h.Mem()[a:], s.data)
	fn := "f"
	if s.tenant {
		fn = testgen.TenantEntry
	}
	var acc int64
	for _, k := range s.keys {
		for _, x := range s.xs {
			v, err := call(fn, a, n, k, x)
			if err != nil {
				return 0, err
			}
			acc = acc*31 + v
		}
	}
	return acc, nil
}

func (w *deploy) probe(int) counts { return w.tot }

func (w *deploy) totals() counts { return w.tot }

func (w *deploy) teardown() { w.store = nil }

func (w *deploy) expected(i int) (int64, error) {
	j := w.sched[i]
	if v, ok := w.want[j]; ok {
		return v, nil
	}
	s := &w.sources[j]
	mod, err := reference(s.src)
	if err != nil {
		return 0, fmt.Errorf("source %d: %w", j, err)
	}
	env := refEnv(mod, len(s.data), 8)
	v, err := s.run(refHeap{env}, env.CallFunc)
	if err != nil {
		return 0, fmt.Errorf("source %d reference: %w", j, err)
	}
	w.want[j] = v
	return v, nil
}
