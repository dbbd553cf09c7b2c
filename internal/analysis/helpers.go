package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), or nil for builtins, conversions, and
// calls through function-typed variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// namedType unwraps pointers and aliases down to the named type, or nil.
func namedType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		case *types.Alias:
			t = types.Unalias(u)
		default:
			return nil
		}
	}
}

// isNamed reports whether t (possibly behind a pointer) is the named type
// pkgSuffix.name, matching the package by import-path suffix so the check
// is independent of the module path.
func isNamed(t types.Type, pkgSuffix, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == name && strings.HasSuffix(n.Obj().Pkg().Path(), pkgSuffix)
}

// isTensorPtr reports whether t is *tensor.Tensor.
func isTensorPtr(t types.Type) bool {
	if _, ok := t.(*types.Pointer); !ok {
		return false
	}
	return isNamed(t, "internal/tensor", "Tensor")
}

// selectorName renders a call's callee as it reads in source ("ops.Fill",
// "t.Dispose"), for diagnostics.
func selectorName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}

// site renders an allocation/call site the way the runtime LifetimeTracker
// names its sites — "func (file:line)" — so static findings and
// tf.LeakCheck and /debug/memory?leaks=N reports line up on the same
// naming.
func (p *Pass) site(funcName string, pos ast.Node) string {
	position := p.Prog.Fset.Position(pos.Pos())
	return funcName + " (" + filepath.Base(position.Filename) + ":" +
		itoa(position.Line) + ")"
}

// itoa is strconv.Itoa without the import, for tiny positive numbers.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type()

// returnsError reports whether the function signature includes an error
// result, returning its index (or -1).
func errorResultIndex(sig *types.Signature) int {
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), errorType) {
			return i
		}
	}
	return -1
}
