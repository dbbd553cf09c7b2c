package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// TensorLeak flags tensor constructor results that can leave a function
// without being disposed, kept, returned, or handed to other code — the
// static complement of the runtime LifetimeTracker (tf.LeakCheck).
// The paper's WebGL/engine memory model has no GC for tensor data, so a
// tensor that merely goes out of scope is a real leak.
//
// The check is deliberately forgiving where ownership is ambiguous:
// passing a tensor to any call, storing it in a structure, aliasing it, or
// returning it all count as "handled", and anything created inside a
// Tidy/TidyList closure is safe by construction. What remains — a result
// dropped on the floor, a variable no path ever releases, or a Dispose
// reachable only on some branches — is reported.
var TensorLeak = &Analyzer{
	Name: "tensorleak",
	Doc: "tensors built via ops.*/tf.* constructors must be disposed, kept, " +
		"returned, or escape on every path",
	Run: runTensorLeak,
}

func runTensorLeak(pass *Pass) error {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFuncLeaks(pass, fn)
		}
	}
	return nil
}

// creation is one tracked constructor call assigned to a local variable.
type creation struct {
	call *ast.CallExpr
	obj  types.Object // the local the result is bound to
	ctx  []ast.Node   // branch context of the creation
}

// use is one occurrence of a tracked variable that discharges the leak
// obligation, with the branch context it happens under.
type safeUse struct {
	ctx []ast.Node
	pos ast.Node
}

func checkFuncLeaks(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	var tracked []creation

	walkStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isTensorConstructor(pass, call) || insideTidy(stack) {
			return true
		}
		parent := stackTop(stack)
		switch p := parent.(type) {
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(),
				"result of %s is dropped; the tensor allocated at %s leaks — dispose it, tidy the scope, or return it",
				selectorName(call), pass.site(fn.Name.Name, call))
		case *ast.AssignStmt:
			if len(p.Lhs) != len(p.Rhs) {
				return true
			}
			for i, rhs := range p.Rhs {
				if rhs != ast.Expr(call) {
					continue
				}
				id, ok := p.Lhs[i].(*ast.Ident)
				if !ok {
					// Stored into a field/element: escapes.
					continue
				}
				if id.Name == "_" {
					pass.Reportf(call.Pos(),
						"result of %s is assigned to _; the tensor allocated at %s leaks",
						selectorName(call), pass.site(fn.Name.Name, call))
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if v, ok := obj.(*types.Var); ok && !v.IsField() {
					tracked = append(tracked, creation{
						call: call, obj: obj, ctx: branchContext(stack),
					})
				}
			}
		case *ast.ValueSpec:
			for i, val := range p.Values {
				if val != ast.Expr(call) || i >= len(p.Names) {
					continue
				}
				if obj := info.Defs[p.Names[i]]; obj != nil {
					tracked = append(tracked, creation{
						call: call, obj: obj, ctx: branchContext(stack),
					})
				}
			}
		}
		// Results that are immediately returned, passed as arguments, or
		// placed in composite literals escape to the caller/callee; nothing
		// to track.
		return true
	})

	for _, c := range tracked {
		uses := collectSafeUses(pass, fn, c.obj)
		if len(uses) == 0 {
			pass.Reportf(c.call.Pos(),
				"tensor %s allocated at %s is never disposed, kept, returned, or passed on — it leaks",
				c.obj.Name(), pass.site(fn.Name.Name, c.call))
			continue
		}
		unconditional := false
		for _, u := range uses {
			if contextSubset(u.ctx, c.ctx) {
				unconditional = true
				break
			}
		}
		if !unconditional {
			guard := pass.Prog.Fset.Position(uses[0].pos.Pos())
			pass.Reportf(c.call.Pos(),
				"tensor %s allocated at %s is disposed or escapes only on some paths (guarded use at line %d); use an unconditional defer %s.Dispose() or a tidy scope",
				c.obj.Name(), pass.site(fn.Name.Name, c.call), guard.Line, c.obj.Name())
		}
	}
}

// collectSafeUses gathers the occurrences of obj that discharge the leak
// obligation: Dispose/Keep calls, being returned directly, being passed as
// a call argument, or escaping through an assignment, composite literal,
// or channel send.
func collectSafeUses(pass *Pass, fn *ast.FuncDecl, obj types.Object) []safeUse {
	info := pass.Pkg.Info
	var uses []safeUse
	walkStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] != obj {
			return true
		}
		parent := stackTop(stack)
		safe := false
		switch p := parent.(type) {
		case *ast.SelectorExpr:
			// t.Dispose() / t.Keep() discharge; t.Data() and friends do not.
			if p.X == ast.Expr(id) && (p.Sel.Name == "Dispose" || p.Sel.Name == "Keep") {
				safe = true
			}
		case *ast.CallExpr:
			// Passed as an argument (not as the callee): ownership handed on.
			for _, arg := range p.Args {
				if arg == ast.Expr(id) {
					safe = true
					break
				}
			}
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
			safe = true
		case *ast.AssignStmt:
			// On the right-hand side: aliased or stored somewhere.
			for _, rhs := range p.Rhs {
				if rhs == ast.Expr(id) {
					safe = true
					break
				}
			}
		case *ast.IndexExpr:
			// m[k] = t style stores.
			safe = true
		}
		if safe {
			uses = append(uses, safeUse{ctx: branchContext(stack), pos: id})
		}
		return true
	})
	return uses
}

// isTensorConstructor reports whether call is a tensor-producing function
// of the ops package or the tf facade — the constructors the lifetime
// discipline covers.
func isTensorConstructor(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.Pkg.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	mod := pass.Prog.ModulePath
	if path != mod+"/internal/ops" && path != mod+"/tf" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil || sig.Results().Len() != 1 {
		return false
	}
	// Facade helpers like tf.Tidy manage lifetimes themselves.
	if strings.HasPrefix(fn.Name(), "Tidy") || fn.Name() == "Keep" {
		return false
	}
	return isTensorPtr(sig.Results().At(0).Type())
}

// insideTidy reports whether the stack passes through a function literal
// handed to a Tidy/TidyList call: the tidy scope adopts everything created
// inside, so such creations are safe by construction.
func insideTidy(stack []ast.Node) bool {
	for i, n := range stack {
		if _, ok := n.(*ast.FuncLit); !ok {
			continue
		}
		if i == 0 {
			continue
		}
		call, ok := stack[i-1].(*ast.CallExpr)
		if !ok {
			continue
		}
		name := selectorName(call)
		if idx := strings.LastIndex(name, "."); idx >= 0 {
			name = name[idx+1:]
		}
		// Match Tidy/TidyList and lowercase local wrappers named tidy.
		if strings.HasPrefix(name, "Tidy") || strings.HasPrefix(name, "tidy") {
			return true
		}
	}
	return false
}

// stackTop returns the immediate parent node, or nil.
func stackTop(stack []ast.Node) ast.Node {
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}
