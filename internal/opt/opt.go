// Package opt implements the static optimizer: constant folding and branch
// folding, copy propagation, dominator-based value numbering (global CSE),
// and dead code elimination, all over SSA form.
//
// Per the paper's section 3.3, optimization around dynamic regions is
// restricted: values defined inside a dynamic region must not be propagated
// to or reused by code outside it (their definitions may be moved into
// set-up code by the splitter, leaving no register definition on the
// ordinary path). These passes run before region splitting.
package opt

import (
	"math"

	"dyncc/internal/ir"
)

// Stats counts what the static optimizer did (useful in tests and dumps).
type Stats struct {
	Folded         int // instructions folded to constants
	BranchesFolded int // constant branches turned into jumps
	CopiesForwards int // copy-propagated uses
	CSEHits        int // instructions removed by value numbering
	DeadRemoved    int // dead instructions removed
}

// SubPass is one named optimizer sub-pass; Run returns the number of IR
// changes it made, taking its tables from the scratch (nil is allowed).
// Sub-passes are registered individually in the compiler pipeline so each
// can be timed, dumped, and disabled for ablation.
type SubPass struct {
	Name string
	Run  func(*ir.Func, *ir.Scratch) int
}

// MaxRounds bounds the optimizer fixpoint iteration.
const MaxRounds = 8

// SubPasses returns the optimizer's sub-passes in canonical order: the
// fixpoint driver (pipeline or Optimize) iterates them in this order
// until a full round changes nothing.
func SubPasses() []SubPass {
	return []SubPass{
		{"const-fold", ConstFold},
		{"simplify", Simplify},
		{"branch-fold", FoldBranches},
		{"copy-prop", CopyProp},
		{"cse", CSE},
		{"dce", DCE},
	}
}

// addTo maps a sub-pass's change count onto the Stats field it reports as.
func (s *Stats) addTo(pass string, n int) {
	switch pass {
	case "const-fold", "simplify":
		s.Folded += n
	case "branch-fold":
		s.BranchesFolded += n
	case "copy-prop":
		s.CopiesForwards += n
	case "cse":
		s.CSEHits += n
	case "dce":
		s.DeadRemoved += n
	}
}

// Optimize runs the full sub-pass pipeline to a fixpoint (bounded). The
// compiler registers the sub-passes individually (internal/pipeline);
// Optimize is the standalone driver for direct users and tests.
func Optimize(f *ir.Func) Stats {
	var total Stats
	s := new(ir.Scratch)
	for i := 0; i < MaxRounds; i++ {
		changed := 0
		for _, sp := range SubPasses() {
			n := sp.Run(f, s)
			changed += n
			total.addTo(sp.Name, n)
		}
		if changed == 0 {
			break
		}
	}
	return total
}

// sameScope reports whether a value defined in block def may be referenced
// from block use under the region-boundary restriction.
func sameScope(def, use *ir.Block) bool {
	return def.Region == nil || def.Region == use.Region
}

// ---------------------------------------------------------------- folding

// ConstFold evaluates instructions whose operands are compile-time
// constants, rewriting them to OpConst/OpFConst.
func ConstFold(f *ir.Func, _ *ir.Scratch) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Dst == 0 || in.Op == ir.OpConst || in.Op == ir.OpFConst {
				continue
			}
			if v, ok := foldInstr(f, in); ok {
				if in.Typ != nil && in.Typ.IsFloat() {
					in.Op = ir.OpFConst
					in.F = math.Float64frombits(uint64(v))
				} else {
					in.Op = ir.OpConst
					in.Const = v
				}
				in.Args = nil
				n++
			}
		}
	}
	return n
}

// constValOf returns the compile-time constant bits of v, if any.
func constValOf(f *ir.Func, v ir.Value) (int64, bool) {
	def := f.DefOf(v)
	if def == nil {
		return 0, false
	}
	switch def.Op {
	case ir.OpConst:
		return def.Const, true
	case ir.OpFConst:
		return int64(math.Float64bits(def.F)), true
	}
	return 0, false
}

func foldInstr(f *ir.Func, in *ir.Instr) (int64, bool) {
	if !in.Op.IsPureNonTrapping() && in.Op != ir.OpDiv && in.Op != ir.OpUDiv &&
		in.Op != ir.OpMod && in.Op != ir.OpUMod {
		return 0, false
	}
	var a, b int64
	switch len(in.Args) {
	case 1:
		var ok bool
		if a, ok = constValOf(f, in.Args[0]); !ok {
			return 0, false
		}
	case 2:
		var ok1, ok2 bool
		a, ok1 = constValOf(f, in.Args[0])
		b, ok2 = constValOf(f, in.Args[1])
		if !ok1 || !ok2 {
			return 0, false
		}
		// Scope restriction: folding only reads values, so it is safe
		// across regions — the result is a fresh constant.
	default:
		return 0, false
	}
	fa, fb := math.Float64frombits(uint64(a)), math.Float64frombits(uint64(b))
	fbits := func(x float64) int64 { return int64(math.Float64bits(x)) }
	bi := func(c bool) int64 {
		if c {
			return 1
		}
		return 0
	}
	switch in.Op {
	case ir.OpCopy:
		return a, true
	case ir.OpAdd:
		return a + b, true
	case ir.OpSub:
		return a - b, true
	case ir.OpMul:
		return a * b, true
	case ir.OpDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case ir.OpUDiv:
		if b == 0 {
			return 0, false
		}
		return int64(uint64(a) / uint64(b)), true
	case ir.OpMod:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case ir.OpUMod:
		if b == 0 {
			return 0, false
		}
		return int64(uint64(a) % uint64(b)), true
	case ir.OpAnd:
		return a & b, true
	case ir.OpOr:
		return a | b, true
	case ir.OpXor:
		return a ^ b, true
	case ir.OpShl:
		return a << uint64(b&63), true
	case ir.OpAShr:
		return a >> uint64(b&63), true
	case ir.OpLShr:
		return int64(uint64(a) >> uint64(b&63)), true
	case ir.OpEq:
		return bi(a == b), true
	case ir.OpNe:
		return bi(a != b), true
	case ir.OpLt:
		return bi(a < b), true
	case ir.OpLe:
		return bi(a <= b), true
	case ir.OpULt:
		return bi(uint64(a) < uint64(b)), true
	case ir.OpULe:
		return bi(uint64(a) <= uint64(b)), true
	case ir.OpNeg:
		return -a, true
	case ir.OpNot:
		return ^a, true
	case ir.OpFAdd:
		return fbits(fa + fb), true
	case ir.OpFSub:
		return fbits(fa - fb), true
	case ir.OpFMul:
		return fbits(fa * fb), true
	case ir.OpFNeg:
		return fbits(-fa), true
	case ir.OpFEq:
		return bi(fa == fb), true
	case ir.OpFNe:
		return bi(fa != fb), true
	case ir.OpFLt:
		return bi(fa < fb), true
	case ir.OpFLe:
		return bi(fa <= fb), true
	case ir.OpIntToFloat:
		return fbits(float64(a)), true
	case ir.OpFloatToInt:
		return int64(fa), true
	}
	return 0, false
}

// FoldBranches rewrites branches on compile-time constants into jumps,
// removing the dead edges (and their φ arguments).
func FoldBranches(f *ir.Func, s *ir.Scratch) int {
	n := 0
	for _, b := range f.Blocks {
		term := b.Term()
		if term == nil {
			continue
		}
		switch term.Op {
		case ir.OpBr:
			c, ok := constValOf(f, term.Args[0])
			if !ok {
				continue
			}
			keep := 0
			if c == 0 {
				keep = 1
			}
			dead := term.Targets[1-keep]
			kept := term.Targets[keep]
			term.Op = ir.OpJump
			term.Args = nil
			term.Targets = []*ir.Block{kept}
			if dead != kept {
				dead.RemovePred(b)
			} else {
				// Both targets identical: drop one pred occurrence.
				dead.RemovePred(b)
			}
			n++
		case ir.OpSwitch:
			c, ok := constValOf(f, term.Args[0])
			if !ok {
				continue
			}
			keep := len(term.Cases) // default
			for i, cv := range term.Cases {
				if cv == c {
					keep = i
					break
				}
			}
			kept := term.Targets[keep]
			// Remove pred occurrences for all non-kept edges.
			for i, t := range term.Targets {
				if i != keep {
					t.RemovePred(b)
				}
			}
			term.Op = ir.OpJump
			term.Args = nil
			term.Cases = nil
			term.Targets = []*ir.Block{kept}
			n++
		}
	}
	if n > 0 {
		f.RemoveUnreachable(s)
	}
	return n
}

// ---------------------------------------------------------------- copyprop

// CopyProp forwards OpCopy sources to their uses and simplifies φs whose
// arguments are all identical, subject to the region-scope restriction.
func CopyProp(f *ir.Func, s *ir.Scratch) int {
	defer s.Release(s.Mark())
	n := 0
	// Resolve copy chains: src[v] is the value v copies (0: none).
	src := s.Values(f.NumValues())
	nsrc := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCopy && in.Dst != 0 {
				src[in.Dst] = in.Args[0]
				nsrc++
			}
			if in.Op == ir.OpPhi && in.Dst != 0 && len(in.Args) > 0 {
				same := true
				for _, a := range in.Args {
					if a != in.Args[0] && a != in.Dst {
						same = false
						break
					}
				}
				if same && in.Args[0] != in.Dst {
					src[in.Dst] = in.Args[0]
					nsrc++
				}
			}
		}
	}
	resolve := func(v ir.Value) ir.Value {
		for seen := 0; seen <= nsrc && src[v] != 0; seen++ {
			v = src[v]
		}
		return v
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				r := resolve(a)
				if r == a {
					continue
				}
				def := f.DefOf(r)
				if def != nil && def.Blk != nil && !sameScope(def.Blk, b) {
					continue
				}
				in.Args[i] = r
				n++
			}
		}
	}
	return n
}

// ---------------------------------------------------------------- CSE

// CSE performs dominator-tree value numbering over pure instructions.
// Constants are skipped (ConstFold canonicalizes toward OpConst, so folding
// duplicate constants into copies would just ping-pong); copy chains are
// resolved when forming keys so copies do not hide equivalences.
func CSE(f *ir.Func, s *ir.Scratch) int {
	defer s.Release(s.Mark())
	cs := cse{f: f, dt: ir.BuildDomTree(f, s)}
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if cseCandidate(in) {
				n++
			}
		}
	}
	cs.avail = make(map[cseKey]ir.Value, n)
	cs.undo = make([]cseUndo, 0, n)
	return cs.walk(f.Entry())
}

// cseKey is an instruction's value-numbering key. It is not dense (an op,
// two value numbers, a constant, a symbol and a slot), so the table of
// available values stays a map.
type cseKey struct {
	op   ir.Op
	a, b ir.Value
	c    int64
	sym  string
	slot int
}

type constKey struct {
	op ir.Op
	c  int64
}

// cse is one CSE run. avail maps a key to the innermost dominating value
// computing it; undo holds the entries the walk shadowed or added, so
// leaving a block restores the table.
type cse struct {
	f     *ir.Func
	dt    *ir.DomTree
	avail map[cseKey]ir.Value
	undo  []cseUndo
	canon map[constKey]ir.Value
}

type cseUndo struct {
	k    cseKey
	prev ir.Value // 0: the key had no entry
}

func cseCandidate(in *ir.Instr) bool {
	return in.Dst != 0 && pure(in) &&
		in.Op != ir.OpConst && in.Op != ir.OpFConst && in.Op != ir.OpCopy
}

// chase resolves copy chains and gives equal literal constants a single
// representative, purely for key formation.
func (cs *cse) chase(v ir.Value) ir.Value {
	for i := 0; i < 64; i++ {
		def := cs.f.DefOf(v)
		if def == nil {
			return v
		}
		var ck constKey
		switch def.Op {
		case ir.OpCopy:
			v = def.Args[0]
			continue
		case ir.OpConst:
			ck = constKey{ir.OpConst, def.Const}
		case ir.OpFConst:
			ck = constKey{ir.OpFConst, int64(math.Float64bits(def.F))}
		default:
			return v
		}
		if r, ok := cs.canon[ck]; ok {
			return r
		}
		if cs.canon == nil {
			cs.canon = map[constKey]ir.Value{}
		}
		cs.canon[ck] = v
		return v
	}
	return v
}

func (cs *cse) walk(b *ir.Block) int {
	mark := len(cs.undo)
	removed := 0
	for _, in := range b.Instrs {
		if !cseCandidate(in) {
			continue
		}
		k := cseKey{op: in.Op, c: in.Const, sym: in.Sym, slot: in.Slot}
		if len(in.Args) > 0 {
			k.a = cs.chase(in.Args[0])
		}
		if len(in.Args) > 1 {
			k.b = cs.chase(in.Args[1])
		}
		if in.Op.IsCommutative() && k.b != 0 && k.b < k.a {
			k.a, k.b = k.b, k.a
		}
		prev := cs.avail[k]
		if prev != 0 {
			prevDef := cs.f.DefOf(prev)
			if prevDef != nil && prevDef.Blk != nil && sameScope(prevDef.Blk, b) {
				// Rewrite to a copy of the earlier value.
				in.Op = ir.OpCopy
				in.Args = []ir.Value{prev}
				in.Const, in.Sym, in.Slot = 0, "", 0
				removed++
				continue
			}
		}
		cs.avail[k] = in.Dst
		cs.undo = append(cs.undo, cseUndo{k, prev})
	}
	for _, c := range cs.dt.Children(b) {
		removed += cs.walk(c)
	}
	for i := len(cs.undo) - 1; i >= mark; i-- {
		if u := cs.undo[i]; u.prev != 0 {
			cs.avail[u.k] = u.prev
		} else {
			delete(cs.avail, u.k)
		}
	}
	cs.undo = cs.undo[:mark]
	return removed
}

func pure(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpPhi, ir.OpCall:
		return false
	}
	return in.Op.IsPureNonTrapping() || in.Op == ir.OpStackAddr
}

// ---------------------------------------------------------------- DCE

// DCE removes pure instructions whose results are never used, with
// mark-and-sweep so that mutually-referencing dead φ cycles die too.
func DCE(f *ir.Func, s *ir.Scratch) int {
	defer s.Release(s.Mark())
	live := s.Bits(f.NumValues())
	work := s.Values(f.NumValues())[:0]
	mark := func(v ir.Value) {
		if v != 0 && !live.Has(int(v)) {
			live.Add(int(v))
			work = append(work, v)
		}
	}
	// Roots: arguments of instructions with effects (or whose removal is
	// otherwise disallowed), plus annotated region constants and keys,
	// which must stay alive until the splitter runs.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Dst != 0 && removable(in) {
				continue
			}
			for _, a := range in.Args {
				mark(a)
			}
		}
	}
	for _, r := range regionsOf(f) {
		for _, v := range r.Consts {
			mark(v)
		}
		for _, v := range r.Keys {
			mark(v)
		}
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		def := f.DefOf(v)
		if def == nil {
			continue
		}
		for _, a := range def.Args {
			mark(a)
		}
	}
	n := 0
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Dst != 0 && !live.Has(int(in.Dst)) && removable(in) {
				n++
				continue
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}
	return n
}

func removable(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpPhi:
		return true
	case ir.OpCall:
		bi := ir.Builtins[in.Sym]
		return bi != nil && bi.Pure
	}
	return in.Op.IsPureNonTrapping() || in.Op == ir.OpStackAddr || in.Op == ir.OpLoad
}

func regionsOf(f *ir.Func) []*ir.Region { return f.Regions }
