package main

import (
	"fmt"
	"runtime"

	"dyncc"
	"dyncc/internal/ir"
)

// layers wraps the calls the workloads make into dyncc, so the traced run
// can put a span around each one and account the compile-side pass rows.
// With a nil tracer the wrappers only forward the call.
type layers struct {
	tr *tracer

	// Compile-side totals over every program compiled in this repetition.
	compiled      int
	compileAllocs uint64
	passes        map[string]int64 // pass name -> summed ns
}

func newLayers(tr *tracer) *layers {
	return &layers{tr: tr, passes: map[string]int64{}}
}

// mallocs reads the cumulative heap allocation count. ReadMemStats stops
// the world, so it is only called by the traced run, outside any span.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (l *layers) addPasses(ps []dyncc.PassStat) {
	for _, p := range ps {
		l.passes[p.Name] += int64(p.Duration)
	}
}

func (l *layers) compile(src string, cfg dyncc.Config, parent, op int32) (*dyncc.Program, error) {
	if l.tr == nil {
		return dyncc.Compile(src, cfg)
	}
	a0 := mallocs()
	s := l.tr.begin(spanCompile, parent, op)
	p, err := dyncc.Compile(src, cfg)
	l.tr.end(s)
	l.compileAllocs += mallocs() - a0
	if err == nil {
		l.compiled++
		l.addPasses(p.CompileStats())
	}
	return p, err
}

func (l *layers) compileBatch(srcs []string, cfg dyncc.Config, parent int32) (*dyncc.BatchResult, error) {
	if l.tr == nil {
		return dyncc.CompileBatch(srcs, cfg)
	}
	a0 := mallocs()
	s := l.tr.begin(spanCompileBatch, parent, -1)
	br, err := dyncc.CompileBatch(srcs, cfg)
	l.tr.end(s)
	l.compileAllocs += mallocs() - a0
	if err == nil {
		l.compiled += br.Stats.Programs
		l.addPasses(br.Stats.PassTotals)
	}
	return br, err
}

func (l *layers) newMachine(p *dyncc.Program, words int, parent, op int32) *dyncc.Machine {
	s := l.tr.begin(spanMachineNew, parent, op)
	m := p.NewMachine(words)
	l.tr.end(s)
	return m
}

func (l *layers) call(m *dyncc.Machine, parent, op int32, fn string, args ...int64) (int64, error) {
	s := l.tr.begin(spanCall, parent, op)
	v, err := m.Call(fn, args...)
	l.tr.end(s)
	return v, err
}

func (l *layers) close(p *dyncc.Program, parent, op int32) {
	s := l.tr.begin(spanClose, parent, op)
	p.Close()
	l.tr.end(s)
}

// heap is the memory interface shared by a dyncc.Machine and the
// reference interpreter, so one routine lays out a workload's data for
// both.
type heap interface {
	Alloc(n int64) (int64, error)
	Mem() []int64
}

// refHeap adapts ir.InterpEnv to heap.
type refHeap struct{ env *ir.InterpEnv }

func (h refHeap) Alloc(n int64) (int64, error) {
	a := h.env.Alloc(n)
	if a < 0 || a+n > int64(len(h.env.Mem)) {
		return 0, fmt.Errorf("reference heap exhausted")
	}
	return a, nil
}

func (h refHeap) Mem() []int64 { return h.env.Mem }

// reference compiles src the way the repository's differential tests build
// their oracle — no dynamic regions and no optimizer — and returns its IR
// module. Results are checked against interpretation of this IR, never
// against a compile of the code under test.
func reference(src string) (*ir.Module, error) {
	p, err := dyncc.Compile(src, dyncc.Config{Dynamic: false, Optimize: false})
	if err != nil {
		return nil, fmt.Errorf("reference compile: %w", err)
	}
	return p.Module(), nil
}

// refEnv returns an interpreter over mod with room for data words of data
// plus calls calls' stack frames (the interpreter never reuses a frame).
func refEnv(mod *ir.Module, data, calls int) *ir.InterpEnv {
	frame := 1
	for _, f := range mod.Funcs {
		if f.StackSize+1 > frame {
			frame = f.StackSize + 1
		}
	}
	return ir.NewInterpEnv(mod, mod.GlobalWords+data+calls*frame+1024)
}
