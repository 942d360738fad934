// Package lockorder implements the bismarckvet analyzer for the
// codebase's lock-acquisition disciplines, the rules whose violations
// are deadlocks rather than leaks. Name locks are scoped — a session
// takes one only through withLock / withRLock(name, fn), which hold it
// for exactly fn's body — so rules A and E read the lock windows off the
// closure nesting:
//
//   - Rule A (one name lock per session): an exclusive withLock is never
//     taken inside another exclusive withLock's fn. The sole sanctioned
//     exception is the shadow-then-final window of the replace-and-fill
//     protocol, where one of the keys is derived via shadowName and
//     therefore disjoint by construction.
//   - Rule B (__meta collapses): lock keys normalize any __meta suffix
//     chain to the base name. Locking a literal "...__meta" key through
//     a raw Guard/nameLocks call bypasses that collapse and silently
//     stops contending with the model's writer.
//   - Rule D (xxxLocked under the mutex): a method named *Locked is a
//     contract that the receiver's mutex is held. Calling one from a
//     function that is not itself *Locked and has not locked a mutex on
//     the receiver first is the decode-storm class of bug — the PR 8
//     cache fill published entries concurrently because a *Locked
//     helper ran outside the critical section.
//   - Rule E (no client I/O under a name lock): session output can be a
//     network connection; fmt.Fprint* inside a withLock / withRLock fn
//     lets one stalled client write stall every writer queued on the
//     table's exclusive lock. Compute under the lock, release, then print.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"bismarck/internal/analysis/framework"
)

// Analyzer is the lockorder analyzer.
var Analyzer = &framework.Analyzer{
	Name: "lockorder",
	Doc: "check name-lock ordering disciplines\n\n" +
		"Reports exclusive withLock scopes nested in one another (outside the shadow-swap\n" +
		"exception), raw lock calls on __meta keys that bypass lockKey's collapse, *Locked\n" +
		"methods called without the mutex, and output written inside a name-lock scope.",
	Run: run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		checkLockScopes(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkLockedCalls(pass, fn.Name.Name, fn.Body)
				}
			case *ast.FuncLit:
				checkLockedCalls(pass, "", fn.Body)
			}
			return true
		})
		checkMetaKeys(pass, f)
	}
	return nil
}

// lockScope matches a scoped name-lock call — withLock(key, fn) or
// withRLock(key, fn) — returning whether it is exclusive.
func lockScope(info *types.Info, call *ast.CallExpr) (ok, exclusive bool) {
	fn := framework.CalleeOf(info, call)
	if fn == nil || len(call.Args) != 2 {
		return false, false
	}
	switch fn.Name() {
	case "withLock":
		return true, true
	case "withRLock":
		return true, false
	}
	return false, false
}

// keyIsShadowDerived reports whether the lock key expression goes through
// shadowName — the replace-and-fill exception, disjoint from the base key
// by construction.
func keyIsShadowDerived(call *ast.CallExpr) bool {
	derived := false
	ast.Inspect(call.Args[0], func(n ast.Node) bool {
		if inner, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(inner.Fun).(*ast.Ident); ok && id.Name == "shadowName" {
				derived = true
			}
		}
		return !derived
	})
	return derived
}

// heldLock is one withLock / withRLock scope enclosing the code being
// visited.
type heldLock struct {
	pos    token.Pos
	excl   bool
	shadow bool
}

// checkLockScopes enforces rules A and E over the closure nesting: the fn
// argument of a withLock / withRLock call is visited with that lock held,
// everything else with the enclosing scopes only. It reports an exclusive
// scope opened inside another exclusive one — unless one of the two keys
// is shadow-derived — and any fmt.Fprint* inside any scope.
func checkLockScopes(pass *framework.Pass, f *ast.File) {
	info := pass.TypesInfo
	var walk func(root ast.Node, held []heldLock)
	walk = func(root ast.Node, held []heldLock) {
		ast.Inspect(root, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if len(held) > 0 && isOutputWrite(info, call) {
				pass.Reportf(call.Pos(),
					"output written while a name lock (line %d) is held; compute under the lock, release it, then print — a stalled client write must not stall the table's writers",
					pass.Fset.Position(held[0].pos).Line)
			}
			ok, excl := lockScope(info, call)
			if !ok {
				return true
			}
			h := heldLock{pos: call.Pos(), excl: excl, shadow: keyIsShadowDerived(call)}
			for _, prior := range held {
				if excl && prior.excl && !prior.shadow && !h.shadow {
					pass.Reportf(call.Pos(),
						"exclusive name lock taken while another (line %d) is still held; a session holds at most one name lock (shadow-swap keys are the only exception)",
						pass.Fset.Position(prior.pos).Line)
					break
				}
			}
			walk(call.Fun, held)
			walk(call.Args[0], held)
			walk(call.Args[1], append(held[:len(held):len(held)], h))
			return false
		})
	}
	walk(f, nil)
}

// isOutputWrite reports whether call is a fmt.Fprint* write — the
// session-output shape whose destination may be a network connection.
func isOutputWrite(info *types.Info, call *ast.CallExpr) bool {
	fn := framework.CalleeOf(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		strings.HasPrefix(fn.Name(), "Fprint")
}

// checkMetaKeys reports raw Guard/nameLocks lock calls whose key ends in
// __meta: lockKey collapses the suffix, so a raw __meta key locks a
// DIFFERENT lock than every normalized path uses. A raw lock call is a
// Lock/RLock whose only result is a niladic func — the Guard contract.
func checkMetaKeys(pass *framework.Pass, f *ast.File) {
	info := pass.TypesInfo
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		fn := framework.CalleeOf(info, call)
		if fn == nil || (fn.Name() != "Lock" && fn.Name() != "RLock") {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Results().Len() != 1 {
			return true
		}
		rsig, ok := sig.Results().At(0).Type().Underlying().(*types.Signature)
		if !ok || rsig.Params().Len() != 0 || rsig.Results().Len() != 0 {
			return true
		}
		if hasMetaSuffix(info, call.Args[0]) {
			pass.Reportf(call.Args[0].Pos(),
				"raw lock on a __meta key bypasses lockKey's collapse; lock the base model name instead")
		}
		return true
	})
}

// hasMetaSuffix reports whether the key expression statically ends in
// "__meta": a string literal/constant with the suffix, or a
// concatenation whose right side has it.
func hasMetaSuffix(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		s := tv.Value.String()
		return strings.HasSuffix(strings.Trim(s, `"`), "__meta")
	}
	if be, ok := e.(*ast.BinaryExpr); ok && be.Op == token.ADD {
		return hasMetaSuffix(info, be.Y)
	}
	return false
}

// checkLockedCalls enforces rule D: a call to x.fooLocked() must come
// from a *Locked function itself, or after a Lock/RLock call on a mutex
// reachable from the same receiver root earlier in the body.
func checkLockedCalls(pass *framework.Pass, funcName string, body *ast.BlockStmt) {
	if strings.HasSuffix(funcName, "Locked") {
		return
	}
	info := pass.TypesInfo
	locked := map[types.Object]bool{} // roots whose mutex was locked
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		if name == "Lock" || name == "RLock" {
			if isSyncMutexLock(info, call) {
				if root := rootObject(info, sel.X); root != nil {
					locked[root] = true
				}
			}
			return true
		}
		if strings.HasSuffix(name, "Locked") && framework.CalleeOf(info, call) != nil {
			root := rootObject(info, sel.X)
			if root == nil || !locked[root] {
				pass.Reportf(call.Pos(),
					"%s is a *Locked method: the receiver's mutex must be held at the call (lock it first, or hoist the call into the critical section)", name)
			}
		}
		return true
	})
}

// isSyncMutexLock reports whether call locks a sync.Mutex or
// sync.RWMutex.
func isSyncMutexLock(info *types.Info, call *ast.CallExpr) bool {
	name := framework.CalleeName(info, call)
	return name == "(*sync.Mutex).Lock" || name == "(*sync.RWMutex).Lock" || name == "(*sync.RWMutex).RLock"
}

// rootObject resolves the leftmost identifier of a selector chain
// (c.mu → c; c.inner.mu → c).
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return framework.ObjectOf(info, x)
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}
