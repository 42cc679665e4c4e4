// Command perfbench is the end-to-end benchmark of the dyncc runtime. It
// runs one workload as a closed loop with a single client goroutine and
// synchronous stitching, checks every op's result against the unoptimized
// IR reference interpreter, and prints its metrics as one JSON object on
// the last line of standard output.
//
//	bash perfbench/run.sh --workload fleet-zipf --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates traced and untraced repetitions of the same ops and reports
// the per-layer metrics. perfbench/README.md describes the workloads, the
// metrics and which of them are exact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// workload is one benchmark workload. Inputs are generated from the seed
// when the workload is made; set-up compiles its programs and creates
// their machines; op runs op i of the timed phase.
type workload interface {
	setup(l *layers, parent int32) error
	op(i int, root int32) (int64, error)
	// probe reads the counters of the machine op i runs on (traced run
	// only), to tell warm ops from cold ones.
	probe(i int) counts
	// totals sums the exact counters over everything set up so far.
	totals() counts
	// teardown closes the programs; it is not timed.
	teardown()
	// expected returns op i's reference result.
	expected(i int) (int64, error)
}

// spec is a workload's constructor, the number of ops in one repetition
// and the nominal rate that sizes a run. Every repetition does the same
// work from a fresh set-up, so its exact counters are a function of the
// seed alone.
type spec struct {
	ops int
	// rate is the workload's untraced throughput in ops per second on a
	// 2-vCPU Xeon VM. A run makes as many repetitions as take --seconds
	// at that rate, so its work, and with it every count it reports, is
	// fixed by its arguments and never by the speed of the host.
	rate float64
	make func(seed int64) workload
}

var workloads = map[string]spec{
	"fleet-zipf":     {ops: 200000, rate: 250000, make: func(s int64) workload { return newFleet(s) }},
	"kernels-steady": {ops: 40000, rate: 100000, make: func(s int64) workload { return newKernels(s) }},
	"deploy-churn":   {ops: deployOps, rate: 300, make: func(s int64) workload { return newDeploy(s) }},
}

// repsFor is the number of repetitions a run of the given length makes: a
// whole multiple of minReps, at least minReps.
func repsFor(sp spec, seconds float64) int {
	n := int(math.Ceil(seconds * sp.rate / float64(sp.ops)))
	return max(minReps, (n+minReps-1)/minReps*minReps)
}

// minReps is the fewest repetitions a run makes, and a run makes a whole
// multiple of it: the exact counters of two same-seed repetitions are
// compared, and a traced run pairs each traced repetition with an untraced
// one.
const minReps = 2

func main() {
	// One client goroutine issues every op. With one P the runtime's own
	// goroutines and the garbage collector share its CPU, so no figure
	// depends on whether the host leaves a second vCPU free.
	runtime.GOMAXPROCS(1)
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: fleet-zipf, kernels-steady or deploy-churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "nominal measured seconds: the run makes the repetitions that take this long at the workload's nominal rate")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	sp, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	n := repsFor(sp, *seconds)
	genStart := time.Now()
	w := sp.make(*seed)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: inputs generated in %v\n", *name, *seed, time.Since(genStart).Round(time.Millisecond))

	var res *result
	var err error
	if *trace == 1 {
		spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.tsv", *name, *seed))
		res, err = runTraced(w, sp, n, spans)
	} else {
		res, err = runUntraced(w, sp, n)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res.Run.Workload, res.Run.Seed = *name, *seed
	details, err := json.Marshal(res.Run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("run %s\n", details)
	out, err := json.Marshal(res.Out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is the line before the result: the host, the run and the spread
// of every metric across the run's repetitions.
type runInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Reps       int     `json:"reps"`
	OpsPerRep  int     `json:"ops_per_rep"`
	Samples    int     `json:"latency_samples"`
	Wrong      int     `json:"wrong_results"`
	Seconds    float64 `json:"measured_s"`
	// Spread maps each metric to [first quartile, median, third quartile]
	// over the repetitions.
	Spread map[string][3]float64 `json:"spread"`
	// OpTimes holds the op phase's host timings (opTimes) of an untraced
	// run, as first quartile, median and third quartile over the
	// repetitions.
	OpTimes map[string][3]float64 `json:"op_times,omitempty"`
	Notes   []string              `json:"notes,omitempty"`
}

type result struct {
	Out output
	Run runInfo
}

func hostInfo(reps, opsPerRep int) runInfo {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return runInfo{CPU: cpu, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Reps: reps, OpsPerRep: opsPerRep}
}

// rep is one repetition: a fresh set-up and a timed phase of spec.ops ops.
type rep struct {
	setup   time.Duration
	wall    time.Duration // timed phase
	lat     []int64       // per-op latency in ns; -1 marks a failed op
	res     []int64       // per-op result, until checked
	errs    []bool        // per-op: the call returned an error, until checked
	counts  counts        // exact counters over the timed phase
	failed  int           // ops that errored or returned a wrong result
	wrong   int           // ops that returned a wrong result
	mallocs uint64
	gcs     uint32
	gcPause uint64 // ns
	live    uint64 // heap bytes the set-up and phase added, after a forced GC

	// Traced repetition only.
	layers *layers
	trace  *traceStats
}

// measure sets the workload up and runs its timed phase, then checks every
// op's result against the reference.
func measure(w workload, sp spec, tr *tracer) (*rep, error) {
	r := &rep{lat: make([]int64, sp.ops), res: make([]int64, sp.ops), errs: make([]bool, sp.ops)}
	l := newLayers(tr)
	// Live heap is reported net of what the process held before set-up.
	// Two collections empty sync.Pool caches, whose victim generation
	// survives one.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc
	t0 := time.Now()
	s := tr.begin(spanSetup, -1, -1)
	err := w.setup(l, s)
	tr.end(s)
	r.setup = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if tr != nil {
		r.layers, r.trace = l, &traceStats{}
	}
	base := w.totals()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	m0, gc0, pause0 := ms.Mallocs, ms.NumGC, ms.PauseTotalNs
	start := time.Now()
	prev := start
	for i := 0; i < sp.ops; i++ {
		var err error
		if tr == nil {
			r.res[i], err = w.op(i, -1)
			now := time.Now()
			r.lat[i], prev = int64(now.Sub(prev)), now
		} else {
			// The probes are tracing overhead: they sit outside the op
			// span but inside the traced phase's wall time.
			pre := w.probe(i)
			root := tr.begin(spanOp, -1, int32(i))
			r.res[i], err = w.op(i, root)
			tr.end(root)
			r.trace.op(tr, root, pre, w.probe(i))
			r.lat[i] = tr.spans[root].end - tr.spans[root].start
		}
		if err != nil {
			r.errs[i] = true
			if r.failed++; r.failed == 1 {
				fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, err)
			}
		}
	}
	r.wall = time.Since(start)
	r.counts = w.totals().sub(base)
	runtime.ReadMemStats(&ms)
	r.mallocs, r.gcs, r.gcPause = ms.Mallocs-m0, ms.NumGC-gc0, ms.PauseTotalNs-pause0
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > heap0 {
		r.live = ms.HeapAlloc - heap0
	}
	w.teardown()
	err = r.check(w)
	r.res, r.errs = nil, nil
	return r, err
}

// check compares every op's result with the reference, after the timed
// phase. A failed or wrong op is counted, and the run goes on.
func (r *rep) check(w workload) error {
	for i, v := range r.res {
		if r.errs[i] {
			r.lat[i] = -1 // a failed op misses every latency limit
			continue
		}
		want, err := w.expected(i)
		if err != nil {
			return fmt.Errorf("reference for op %d: %w", i, err)
		}
		if v != want {
			if r.wrong == 0 {
				fmt.Fprintf(os.Stderr, "perfbench: op %d returned %d, reference %d\n", i, v, want)
			}
			r.wrong++
			r.failed++
			r.lat[i] = -1
		}
	}
	if r.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed (%d wrong results)\n", r.failed, len(r.lat), r.wrong)
	}
	return nil
}

// repeat runs n repetitions. Repetition k is traced by tracer(k) (nil for
// untraced) and handed to done, when done is not nil.
func repeat(w workload, sp spec, n int, tracer func(k int) *tracer, done func(k int, r *rep) error) ([]*rep, time.Duration, error) {
	var reps []*rep
	var measured time.Duration
	for k := 0; k < n; k++ {
		r, err := measure(w, sp, tracer(k))
		if err != nil {
			return nil, 0, err
		}
		if done != nil {
			if err := done(k, r); err != nil {
				return nil, 0, err
			}
		}
		reps = append(reps, r)
		measured += r.wall
		fmt.Fprintf(os.Stderr, "perfbench: rep %d: set-up %v, %d ops in %v, %d failed\n",
			k, r.setup.Round(time.Millisecond), len(r.lat), r.wall.Round(time.Millisecond), r.failed)
	}
	return reps, measured, nil
}

// quantile is the nearest-rank q-quantile of latencies in ns, sorted so
// that the failed ops (-1) come first; failed ops rank above every
// success. When the quantile falls on a failed op it has no finite value,
// and wall, the timed phase, which bounds every finished op, stands in
// for it.
func quantile(sorted []int64, q float64, wall time.Duration) float64 {
	failed, _ := slices.BinarySearch(sorted, 0)
	n := len(sorted)
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n-failed {
		return float64(wall)
	}
	return float64(sorted[failed+k])
}

// spread returns the first quartile, median and third quartile of xs, with
// the same interpolation as Python's statistics.quantiles(n=4).
func spread(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	at := func(j int) float64 {
		m := float64(j*(n+1)) / 4
		i := int(m)
		if i < 1 {
			return s[0]
		}
		if i >= n {
			return s[n-1]
		}
		return s[i-1] + (m-float64(i))*(s[i]-s[i-1])
	}
	return [3]float64{at(1), median(s), at(3)}
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// sameCounts checks that every repetition produced identical exact
// counters and failures; a difference makes the run incorrect.
func sameCounts(reps []*rep) []string {
	var notes []string
	for k := 1; k < len(reps); k++ {
		if reps[k].counts != reps[0].counts || reps[k].failed != reps[0].failed {
			notes = append(notes, fmt.Sprintf("exact counters differ between repetitions 0 and %d: %+v (failed %d) vs %+v (failed %d)",
				k, reps[0].counts, reps[0].failed, reps[k].counts, reps[k].failed))
		}
	}
	for _, n := range notes {
		fmt.Fprintln(os.Stderr, "perfbench:", n)
	}
	return notes
}

// finish fills the parts of a result every run shares: op and failure
// counts, correctness and the host and repetition details. An op that
// errors or returns a result other than the reference's is a failed op:
// it is counted, never hidden, and the run goes on. The run is incorrect
// when it cannot vouch for its own figures: when two repetitions of the
// same seed disagree on an exact counter or on how many ops failed.
func finish(reps []*rep, sp spec, measured time.Duration, m map[string][]float64, units map[string]string) (*result, error) {
	info := hostInfo(len(reps), sp.ops)
	info.Seconds = measured.Seconds()
	info.Notes = sameCounts(reps)
	out := output{Correct: len(info.Notes) == 0, Metrics: map[string]metric{}}
	out.Attempted = len(reps) * sp.ops
	info.Samples = out.Attempted
	for _, r := range reps {
		out.Failed += r.failed
		info.Wrong += r.wrong
	}
	info.Spread = map[string][3]float64{}
	for k, vs := range m {
		unit, ok := units[k]
		if !ok {
			return nil, fmt.Errorf("metric %s has no unit", k)
		}
		out.Metrics[k] = metric{Value: median(vs), Unit: unit}
		info.Spread[k] = spread(vs)
	}
	return &result{Out: out, Run: info}, nil
}

// endToEndUnits gives every end-to-end metric its unit.
var endToEndUnits = map[string]string{
	"setup_s": "s", "ok_ops_frac": "fraction", "guest_cycles_per_op": "cycles",
	"allocs_per_op": "count", "live_heap_mb": "MB",
}

// opTimes returns the host timings of a repetition's op phase: ops per
// second and the per-op latency quantiles, each over the repetition's
// ops. The run line reports them for the untraced run and the per-layer
// metrics for the traced one; they are not end-to-end metrics, because
// the shared host's speed swings more between runs than any bound allows
// (README, "Spread on a shared 2-vCPU host").
func opTimes(r *rep) map[string]float64 {
	slices.Sort(r.lat)
	return map[string]float64{
		"ops_per_s": float64(len(r.lat)) / r.wall.Seconds(),
		"op_p50_us": quantile(r.lat, 0.50, r.wall) / 1e3,
		"op_p99_us": quantile(r.lat, 0.99, r.wall) / 1e3,
	}
}

// runUntraced measures n untraced repetitions and reports the end-to-end
// metrics, each the median over the repetitions.
func runUntraced(w workload, sp spec, n int) (*result, error) {
	reps, measured, err := repeat(w, sp, n, func(int) *tracer { return nil }, nil)
	if err != nil {
		return nil, err
	}
	m, times := map[string][]float64{}, map[string][]float64{}
	for _, r := range reps {
		ops := float64(sp.ops)
		for k, v := range opTimes(r) {
			times[k] = append(times[k], v)
		}
		r.lat = nil
		m["setup_s"] = append(m["setup_s"], r.setup.Seconds())
		m["ok_ops_frac"] = append(m["ok_ops_frac"], 1-float64(r.failed)/ops)
		m["guest_cycles_per_op"] = append(m["guest_cycles_per_op"], float64(r.counts.Cycles)/ops)
		m["allocs_per_op"] = append(m["allocs_per_op"], float64(r.mallocs)/ops)
		m["live_heap_mb"] = append(m["live_heap_mb"], float64(r.live)/(1<<20))
	}
	res, err := finish(reps, sp, measured, m, endToEndUnits)
	if err != nil {
		return nil, err
	}
	res.Run.OpTimes = map[string][3]float64{}
	for k, vs := range times {
		res.Run.OpTimes[k] = spread(vs)
	}
	return res, nil
}
