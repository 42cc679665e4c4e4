// Package lower translates MiniC ASTs into the three-address IR, performing
// type checking on the way. Scalar locals become virtual registers (later
// SSA values); aggregates and address-taken locals get stack slots.
package lower

import (
	"fmt"

	"dyncc/internal/ast"
	"dyncc/internal/ir"
	"dyncc/internal/token"
	"dyncc/internal/types"
)

// Lower type-checks and lowers a parsed file to an IR module. Its
// reachability tables come from s (nil is allowed).
func Lower(file *ast.File, s *ir.Scratch) (*ir.Module, error) {
	lw := &lowerer{
		mod:     ir.NewModule(),
		structs: map[string]*types.Type{},
		funcs:   map[string]*types.Type{},
		scratch: s,
	}
	for _, sd := range file.Structs {
		lw.declareStruct(sd)
	}
	for _, g := range file.Globals {
		lw.declareGlobal(g)
	}
	for _, fd := range file.Funcs {
		lw.declareFunc(fd)
	}
	for _, fd := range file.Funcs {
		if fd.Body != nil {
			lw.lowerFunc(fd)
		}
	}
	if len(lw.errs) > 0 {
		return nil, lw.errs[0]
	}
	return lw.mod, nil
}

type lowerer struct {
	mod     *ir.Module
	structs map[string]*types.Type
	funcs   map[string]*types.Type
	errs    []error
	scratch *ir.Scratch
}

func (lw *lowerer) errorf(p token.Pos, format string, args ...any) {
	lw.errs = append(lw.errs, fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...)))
}

// resolveType converts a syntactic TypeExpr to a semantic type.
func (lw *lowerer) resolveType(te *ast.TypeExpr) *types.Type {
	var t *types.Type
	switch te.Base {
	case token.KwInt, token.KwChar:
		t = types.IntType
	case token.KwUnsigned:
		t = types.UnsignedType
	case token.KwFloat, token.KwDouble:
		t = types.FloatType
	case token.KwVoid:
		t = types.VoidType
	case token.KwStruct:
		st, ok := lw.structs[te.StructName]
		if !ok {
			lw.errorf(te.P, "undefined struct %s", te.StructName)
			return types.IntType
		}
		t = st
	default:
		lw.errorf(te.P, "bad type")
		return types.IntType
	}
	for i := 0; i < te.Ptr; i++ {
		t = types.PointerTo(t)
	}
	// Array dims apply outermost-first: int a[2][3] is array(2, array(3, int)).
	for i := len(te.ArrayLens) - 1; i >= 0; i-- {
		n := te.ArrayLens[i]
		if n < 0 {
			lw.errorf(te.P, "unsized arrays are not supported")
			n = 0
		}
		t = types.ArrayOf(t, n)
	}
	return t
}

func (lw *lowerer) declareStruct(sd *ast.StructDecl) {
	var fields []types.Field
	// Pre-register the name so self-referential pointers work.
	placeholder := &types.Type{Kind: types.Struct, Name: sd.Name}
	lw.structs[sd.Name] = placeholder
	for _, f := range sd.Fields {
		ft := lw.resolveType(f.Type)
		if ft.Kind == types.Struct && ft.Name == sd.Name {
			lw.errorf(f.P, "struct %s contains itself", sd.Name)
			continue
		}
		fields = append(fields, types.Field{Name: f.Name, Type: ft})
	}
	st := types.NewStruct(sd.Name, fields)
	*placeholder = *st
	lw.structs[sd.Name] = placeholder
}

func (lw *lowerer) declareGlobal(g *ast.VarDecl) {
	t := lw.resolveType(g.Type)
	gv := lw.mod.AddGlobal(g.Name, t)
	if g.Init != nil {
		switch init := g.Init.(type) {
		case *ast.IntLit:
			gv.Init = []int64{init.Val}
		case *ast.FloatLit:
			gv.Init = []int64{floatBits(init.Val)}
		default:
			lw.errorf(g.P, "global initializer must be a literal")
		}
	}
}

func (lw *lowerer) declareFunc(fd *ast.FuncDecl) {
	ret := lw.resolveType(fd.Ret)
	var params []*types.Type
	for _, p := range fd.Params {
		pt := lw.resolveType(p.Type)
		if !pt.IsScalar() {
			lw.errorf(p.P, "parameter %s must have scalar type, got %s", p.Name, pt)
		}
		params = append(params, pt)
	}
	if _, dup := lw.funcs[fd.Name]; dup {
		// Prototype followed by definition is fine; keep latest.
	}
	lw.funcs[fd.Name] = types.FuncType(ret, params)
}
