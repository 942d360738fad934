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

// CalleeName returns the callee's fully-qualified name — e.g.
// "(*bismarck/internal/serve.Gate).Admit" for methods (always in pointer
// form, so value- and pointer-receiver call sites compare equal) or
// "fmt.Errorf" for package functions — and "" when the callee cannot be
// resolved.
func CalleeName(info *types.Info, call *ast.CallExpr) string {
	fn := CalleeOf(info, call)
	if fn == nil {
		return ""
	}
	return NormalizedFuncName(fn)
}

// NormalizedFuncName renders fn like types.Func.FullName but with any
// method receiver forced to its pointer form, giving one canonical
// spelling per method.
func NormalizedFuncName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.FullName()
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return fn.FullName() // interface method: FullName is already canonical
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return fn.FullName()
	}
	return "(*" + obj.Pkg().Path() + "." + obj.Name() + ")." + fn.Name()
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
