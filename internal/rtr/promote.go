// Speculative promotion and guarded deoptimization for Auto regions — the
// runtime half of profile-guided automatic region selection.
//
// An Auto region (synthesized by the compiler's `autoregion` pass from an
// unannotated function) starts in the *profiling* state: every DYNENTER
// records the live key tuple and runs the call through inline set-up plus
// the generic interpreter tier — no stitching, so an unstable or cold
// region never pays specialization costs. When the region has been entered
// PromoteThreshold times since the last demotion AND the stability tracker
// (internal/analysis.Stability) reports the recent key tuples identical,
// the region is *promoted*: DYNENTER takes the ordinary keyed lookup path
// (level-2 → level-1 → stitch), plus a per-machine monomorphic fast path
// that reuses the last stitched segment without even encoding the key.
//
// Every stitched segment of an Auto region is wrapped in GUARD
// instructions — one per key, comparing the live key register against the
// value the segment was stitched for. On the keyed lookup path the guards
// always pass (the lookup key was built from the same registers); they
// exist for the monomorphic path, where a changed key is caught by the
// guard and control *deoptimizes*: the OnDeopt hook demotes the region
// back to profiling (with the promotion threshold multiplied by
// BackoffFactor — hysteresis, so a phase-flipping operand cannot livelock
// promote/deopt cycles), bumps the region generation so every stale stitch
// is orphaned through the existing invalidation path, and the VM transfers
// to the region's set-up entry in the parent segment (tmpl.Region.DeoptPC).
// Set-up re-runs with the live values and DYNSTITCH routes the call to the
// generic tier — observable behaviour is exactly as if the region had
// never been promoted.
package rtr

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dyncc/internal/analysis"
	"dyncc/internal/tmpl"
	"dyncc/internal/vm"
)

// Promotion policy defaults (AutoOptions zero values).
const (
	// DefaultPromoteThreshold is how many invocations an Auto region must
	// see (since its last demotion) before it may promote.
	DefaultPromoteThreshold = 8
	// DefaultBackoffFactor multiplies the promotion threshold on every
	// deoptimization, so a region whose "stable" operand keeps changing
	// promotes geometrically less often.
	DefaultBackoffFactor = 4
	// DefaultMaxThreshold caps backoff growth.
	DefaultMaxThreshold = 1 << 20
)

// AutoOptions tune speculative promotion of Auto regions. The zero value
// selects the defaults above; the options are inert for programs without
// Auto regions.
type AutoOptions struct {
	// PromoteThreshold is the invocation count before promotion
	// (0 = DefaultPromoteThreshold). Set it above any workload's call
	// count to obtain a never-promoting baseline.
	PromoteThreshold uint64
	// StabilityWindow is how many consecutive identical key tuples the
	// profiler must observe (0 = analysis.DefaultStabilityWindow).
	StabilityWindow int
	// BackoffFactor multiplies the threshold after each deoptimization
	// (0 = DefaultBackoffFactor).
	BackoffFactor uint64
	// MaxThreshold caps backoff growth (0 = DefaultMaxThreshold).
	MaxThreshold uint64
}

func (o AutoOptions) promoteThreshold() uint64 {
	if o.PromoteThreshold == 0 {
		return DefaultPromoteThreshold
	}
	return o.PromoteThreshold
}

func (o AutoOptions) backoffFactor() uint64 {
	if o.BackoffFactor < 2 {
		return DefaultBackoffFactor
	}
	return o.BackoffFactor
}

func (o AutoOptions) maxThreshold() uint64 {
	if o.MaxThreshold == 0 {
		return DefaultMaxThreshold
	}
	return o.MaxThreshold
}

// autoState is the promotion state machine of one Auto region. The
// promoted flag is read locklessly on the DYNENTER fast path; everything
// else is touched under mu (the profiling path is the generic-tier slow
// path already, so a mutex there costs nothing measurable).
type autoState struct {
	mu        sync.Mutex
	promoted  atomic.Bool
	hot       uint64 // invocations since last demotion
	threshold uint64 // current promotion threshold (grows on deopt)
	stab      *analysis.Stability
}

// hasAuto reports whether any region in the set is an Auto region.
func hasAuto(regions []*tmpl.Region) bool {
	for _, r := range regions {
		if r != nil && r.Auto {
			return true
		}
	}
	return false
}

// initAuto allocates the promotion state (called from New when the program
// has Auto regions). The generic tier must be constructible, so the
// generics slots are allocated here too when async stitching did not
// already do so.
func (rt *Runtime) initAuto() {
	rt.auto = make([]autoState, len(rt.Regions))
	for i := range rt.auto {
		rt.auto[i].threshold = rt.Opts.Auto.promoteThreshold()
		rt.auto[i].stab = analysis.NewStability(rt.Opts.Auto.StabilityWindow)
	}
	if rt.generics == nil {
		rt.generics = make([]genericSlot, len(rt.Regions))
	}
}

// isPromoted is the lock-free fast-path read of the promotion flag.
func (rt *Runtime) isPromoted(region int) bool {
	return rt.auto[region].promoted.Load()
}

// autoEnter handles DYNENTER of an Auto region (the generation check
// already ran). Profiling state: observe the key tuple, maybe promote, and
// fall through to inline set-up (DYNSTITCH will route to the generic
// tier). Promoted state: monomorphic fast path, then the ordinary keyed
// path.
func (rt *Runtime) autoEnter(m *vm.Machine, ms *machineState, region int,
	r *tmpl.Region) (*vm.Segment, error) {

	if !rt.isPromoted(region) {
		key := appendKey(ms.keyBuf[:0], m, r)
		ms.keyBuf = key
		ks := string(key)
		rt.observe(region, ks, r)
		if slot, ok := ms.cache[region][ks]; ok {
			// Rare: a segment stitched while profiling (generic tier
			// unavailable for this region). Reuse it instead of
			// re-stitching; its guards pass — this is the keyed lookup.
			slot.ref = true
			return slot.seg, nil
		}
		ms.pending[region] = ks
		return nil, nil // inline set-up, then DYNSTITCH (generic tier)
	}
	if seg := ms.mono[region]; seg != nil {
		// Monomorphic fast path: reuse the last segment without encoding
		// the key. Its GUARDs verify the speculation and deoptimize on
		// mismatch.
		return seg, nil
	}
	key := appendKey(ms.keyBuf[:0], m, r)
	ms.keyBuf = key
	if slot, ok := ms.cache[region][string(key)]; ok {
		slot.ref = true
		ms.mono[region] = slot.seg
		return slot.seg, nil
	}
	seg, err := rt.enterCold(m, ms, region, key)
	if seg != nil && err == nil && seg.Stitched && len(seg.Code) > 0 &&
		seg.Code[0].Op == vm.GUARD {
		// Cache only guarded stitched segments in the mono slot — never
		// the generic fallback segment (it has no guards; serving it
		// monomorphically would be correct but would shadow promotion).
		ms.mono[region] = seg
	}
	return seg, err
}

// observe records one profiling-state key observation and promotes the
// region when it is hot, stable, and eligible (keyed and shareable — the
// same proof that makes its stitched code a pure function of the key).
func (rt *Runtime) observe(region int, key string, r *tmpl.Region) {
	st := &rt.auto[region]
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.promoted.Load() {
		return // promoted by a racing machine between our check and here
	}
	st.hot++
	st.stab.Observe(key)
	if st.hot >= st.threshold && st.stab.Stable() &&
		len(r.KeyRegs) > 0 && rt.shared(r) {
		st.promoted.Store(true)
		rt.promotions.Add(1)
	}
}

// onDeopt demotes a region after a guard failure: back to profiling with
// an exponentially backed-off threshold, generation bumped so every stale
// stitch (shared and per-machine) is orphaned. Idempotent across machines:
// only the demoting call counts a deoptimization, so concurrent guard
// failures on other machines holding the same stale segment fold into one.
func (rt *Runtime) onDeopt(region int) {
	st := &rt.auto[region]
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.promoted.Load() {
		return
	}
	st.promoted.Store(false)
	st.hot = 0
	st.stab.Reset()
	st.threshold *= rt.Opts.Auto.backoffFactor()
	if max := rt.Opts.Auto.maxThreshold(); st.threshold > max {
		st.threshold = max
	}
	rt.deopts.Add(1)
	// Orphan stale stitches through the existing invalidation path (the
	// generation bump also flushes every machine's level-2 copies and mono
	// slots on their next DYNENTER).
	rt.Invalidate(region)
}

// wrapGuards returns a copy of a freshly stitched Auto-region segment with
// one GUARD prepended per key: GUARD compares the live key register
// against the value the segment was stitched for and deoptimizes to the
// region's set-up entry (r.DeoptPC, a parent-segment pc) on mismatch.
// Internal branch targets shift by the guard count; XFER targets (parent
// pcs) do not. produce wraps every stitch before it is cached, published
// or persisted, so every producer (inline, singleflight winner,
// background worker) and the persistent store carry byte-identical
// guarded code.
func wrapGuards(r *tmpl.Region, seg *vm.Segment, key string) (*vm.Segment, error) {
	g := len(r.KeyRegs)
	if g == 0 {
		return seg, nil
	}
	keyVals, err := decodeKey(key, g)
	if err != nil {
		return nil, fmt.Errorf("guard wrap %s: %w", r.Name, err)
	}
	if len(seg.JumpTables) != 0 {
		// Stitched segments never carry jump tables (run-time switches are
		// lowered to two-way branches before templating); refuse rather
		// than emit a segment whose table targets went stale.
		return nil, fmt.Errorf("guard wrap %s: unexpected jump tables", r.Name)
	}
	code := make([]vm.Inst, 0, g+len(seg.Code))
	for i := 0; i < g; i++ {
		code = append(code, vm.Inst{
			Op:     vm.GUARD,
			Rs:     r.KeyRegs[i],
			Imm:    keyVals[i],
			Target: r.DeoptPC,
		})
	}
	for _, in := range seg.Code {
		switch in.Op {
		case vm.BEQZ, vm.BNEZ, vm.BEQI, vm.BR, vm.CMPBR, vm.CMPBRI:
			in.Target += g
		}
		// XFER and GUARD targets point into the parent segment; unshifted.
		code = append(code, in)
	}
	ns := &vm.Segment{
		Name:     seg.Name,
		Code:     code,
		Consts:   seg.Consts,
		Parent:   seg.Parent,
		Region:   seg.Region,
		Stitched: seg.Stitched,
	}
	ns.Prepare()
	return ns, nil
}

// guardStitch wraps seg when region r is Auto; identity otherwise. produce
// calls it right after its stitcher.Stitch.
func guardStitch(r *tmpl.Region, seg *vm.Segment, key string) (*vm.Segment, error) {
	if !r.Auto {
		return seg, nil
	}
	return wrapGuards(r, seg, key)
}
