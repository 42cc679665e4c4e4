package codegen

import "dyncc/internal/ir"

// regionShareable decides whether region r's stitched code is a pure
// function of its key-register values, which is the soundness condition for
// the runtime's cross-machine shared stitch cache (see tmpl.Region.Shareable
// and DESIGN.md "Runtime concurrency model").
//
// The rule: walk the set-up subgraph the splitter synthesized for r and
// require that
//
//  1. it performs no loads — every table value is computed, not read out of
//     machine memory, so the table contents cannot alias per-machine data;
//  2. its only calls are the builder's own "alloc" calls that create the
//     table and the unrolled-loop iteration records — their results are
//     consumed by the stitcher for record chasing and never emitted into
//     stitched code;
//  3. it takes no frame addresses (stack slot addresses differ per call
//     depth even on one machine); and
//  4. every value it consumes but does not define is either a region key
//     or a machine-independent constant (integer/float literal or a global
//     address, which is identical across machines of one Program).
//
// Under these conditions two machines presenting the same key bytes at
// DYNENTER would stitch bit-identical segments, so handing one machine's
// segment to the other is indistinguishable from re-stitching.
func regionShareable(f *ir.Func, r *ir.Region, s *ir.Scratch) bool {
	defer s.Release(s.Mark())
	key := s.Bits(f.NumValues())
	for _, k := range r.Keys {
		key.Add(int(k))
	}

	// Values defined inside the set-up subgraph.
	defined := s.Bits(f.NumValues())
	empty := true
	for _, b := range f.Blocks {
		if b.Setup && b.Region == r {
			for _, in := range b.Instrs {
				if in.Dst != 0 {
					defined.Add(int(in.Dst))
				}
				empty = false
			}
		}
	}
	if empty {
		// No set-up at all: the templates have no holes to fill, so the
		// stitched code is trivially key-independent and shareable.
		return true
	}

	for _, b := range f.Blocks {
		if !b.Setup || b.Region != r {
			continue
		}
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpLoad:
				return false // table contents would alias machine memory
			case ir.OpStackAddr:
				return false // frame addresses are not machine-independent
			case ir.OpCall:
				if in.Sym != "alloc" {
					return false
				}
			}
			for _, a := range in.Args {
				if a == 0 || defined.Has(int(a)) || key.Has(int(a)) {
					continue
				}
				def := f.DefOf(a)
				if def == nil {
					return false // parameter or unknown: not covered by the key
				}
				switch def.Op {
				case ir.OpConst, ir.OpFConst, ir.OpGlobalAddr:
					// Machine-independent by construction.
				default:
					return false
				}
			}
		}
	}
	return true
}
