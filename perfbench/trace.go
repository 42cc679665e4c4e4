package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName is one of the layer boundaries the benchmark times. Spans are
// recorded only by the benchmark's own code, around each call it makes into
// a layer of dyncc; nothing inside the program is instrumented.
type spanName uint8

const (
	spanSetup        spanName = iota // bench.setup: one workload set-up
	spanOp                           // bench.op: one op of the timed phase
	spanCompile                      // core.compile: one dyncc.Compile
	spanCompileBatch                 // core.compile_batch: one dyncc.CompileBatch
	spanMachineNew                   // vm.machine_new: one Program.NewMachine
	spanCall                         // vm.call: one Machine.Call
	spanClose                        // rtr.close: one Program.Close
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"bench.setup", "bench.op", "core.compile", "core.compile_batch",
	"vm.machine_new", "vm.call", "rtr.close",
}

// span is one timed interval. Times are nanoseconds since the tracer's
// base; parent indexes the enclosing span (-1 for a root); op is the id of
// the op the span belongs to (-1 for set-up and teardown).
type span struct {
	start, end int64
	parent     int32
	op         int32
	name       spanName
}

// tracer keeps spans in memory for one traced repetition. A nil *tracer is
// the untraced run: every method is a no-op, so the untraced path reads no
// clock for tracing.
type tracer struct {
	base  time.Time
	spans []span
}

// spanCap is the initial span buffer (32 bytes a span); it holds every
// span of one repetition of each workload.
const spanCap = 1 << 20

func newTracer() *tracer {
	return &tracer{spans: make([]span, 0, spanCap)}
}

// reset empties the tracer for another repetition.
func (t *tracer) reset() {
	t.base, t.spans = time.Now(), t.spans[:0]
}

func (t *tracer) begin(name spanName, parent, op int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{start: int64(time.Since(t.base)), end: -1,
		parent: parent, op: op, name: name})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.base))
}

// layerTimes is the trace reduced to per-name totals: summed duration, summed
// self time (duration minus the part its children cover) and span count.
type layerTimes struct {
	dur, self [numSpanNames]int64
	n         [numSpanNames]int64
}

// reduce derives each span name's total and self time. Spans of one
// goroutine nest without overlap, so a span's children cover exactly the
// sum of their durations.
func (t *tracer) reduce() layerTimes {
	var lt layerTimes
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		lt.dur[s.name] += d
		lt.self[s.name] += d - child[i]
		lt.n[s.name]++
	}
	return lt
}

// dump writes the spans of set-up, teardown and the first ops ops to
// path, one line a span: id, op, parent, name, and start and end in ns
// since the repetition's set-up began.
func (t *tracer) dump(path string, ops int32) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\top\tparent\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		if s.op < ops {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.op, s.parent, spanNames[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
