package framework

import (
	"go/ast"
	"go/types"
)

// CalleeOf resolves the called function or method of call, or nil for
// builtins, type conversions, and calls of function-typed expressions
// the checker cannot attribute (computed closures).
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// ObjectOf resolves the object an identifier expression denotes (through
// parens), or nil for non-identifier expressions.
func ObjectOf(info *types.Info, e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil {
			return obj
		}
		return info.Defs[id]
	}
	return nil
}
