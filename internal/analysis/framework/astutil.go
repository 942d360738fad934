package framework

import (
	"go/ast"
	"go/types"
	"strings"
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

// IsMethodNamed reports whether call invokes a method with the given
// name on a (pointer to) named type whose qualified name
// "pkgpath.TypeName" ends in typeSuffix. Matching by suffix lets an
// analyzer recognize both the real type and a structurally equivalent
// fixture type under testdata.
func IsMethodNamed(info *types.Info, call *ast.CallExpr, typeSuffix, method string) bool {
	name := CalleeName(info, call)
	if name == "" {
		return false
	}
	open := strings.Index(name, "(*")
	close := strings.Index(name, ")")
	if open != 0 || close < 0 {
		return false
	}
	return strings.HasSuffix(name[2:close], typeSuffix) && name[close:] == ")."+method
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

// RefersTo reports whether any identifier under n denotes obj.
func RefersTo(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if id, ok := x.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// Terminates reports whether stmt unconditionally leaves the enclosing
// function: a return, a panic, or a call that never returns (os.Exit,
// log.Fatal*, runtime.Goexit, testing's t.Fatal*). Branch statements
// (break/continue/goto) are NOT terminating here — callers handle loops
// conservatively.
func Terminates(info *types.Info, stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" && info.Uses[id] == nil && info.Defs[id] == nil {
			return true
		}
		switch CalleeName(info, call) {
		case "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln", "runtime.Goexit":
			return true
		}
		name := CalleeName(info, call)
		return strings.HasSuffix(name, ").Fatal") || strings.HasSuffix(name, ").Fatalf") ||
			strings.HasSuffix(name, ").Skip") || strings.HasSuffix(name, ").Skipf")
	case *ast.BlockStmt:
		for _, inner := range s.List {
			if Terminates(info, inner) {
				return true
			}
		}
		return false
	case *ast.IfStmt:
		if s.Else == nil {
			return false
		}
		return Terminates(info, s.Body) && Terminates(info, s.Else)
	}
	return false
}
