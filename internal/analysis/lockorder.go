package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockOrder enforces the engine's lock hierarchy: the engine execution
// lock (acquired by `Engine.RunExclusive`, and transitively by
// `Model.Execute`/`Predict` and everything built on them) is the
// outermost lock; pool and local mutexes (the bufpool free-list mutex,
// registry maps, metrics) nest inside it — `DisposeData` already takes
// the pool mutex while the caller holds the exec lock on every plan
// execution. A goroutine that acquires the exec lock while holding any
// sync.Mutex/RWMutex inverts that order and can deadlock against the
// steady-state serving path. The analyzer is module-wide: it computes
// the transitive set of functions that acquire the exec lock, then flags
// every call into that set made while a mutex is lexically held.
var LockOrder = &Analyzer{
	Name:   "lockorder",
	Module: true,
	Doc: "never acquire the engine execution lock (RunExclusive, or anything " +
		"calling it) while holding a mutex; exec lock is outermost, pool/local " +
		"mutexes nest inside",
	Run: runLockOrder,
}

// lockOrderFunc pairs a declaration with its package (for type info).
type lockOrderFunc struct {
	pkg  *Package
	decl *ast.FuncDecl
}

func runLockOrder(pass *Pass) error {
	// Map every function in the program to its declaration.
	decls := map[*types.Func]lockOrderFunc{}
	for _, pkg := range pass.Prog.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = lockOrderFunc{pkg: pkg, decl: fd}
				}
			}
		}
	}

	// Transitive closure of exec-lock acquirers: a function acquires the
	// lock when its synchronous body calls RunExclusive on an engine, or
	// calls another acquirer. calledBy records one witness callee per
	// acquirer so reports can print the chain down to RunExclusive.
	acquires := map[*types.Func]bool{}
	witness := map[*types.Func]*types.Func{}
	for changed := true; changed; {
		changed = false
		for fn, lf := range decls {
			if acquires[fn] {
				continue
			}
			walkStack(lf.decl.Body, func(n ast.Node, stack []ast.Node) bool {
				if acquires[fn] {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok || !sameLockFrame(stack, lf.decl.Body) {
					return true
				}
				if isEngineMethodCall(lf.pkg.Info, call, "RunExclusive") {
					acquires[fn] = true
					changed = true
					return false
				}
				if callee := calleeFunc(lf.pkg.Info, call); callee != nil && acquires[callee] {
					acquires[fn] = true
					witness[fn] = callee
					changed = true
					return false
				}
				return true
			})
		}
	}

	// Flag every synchronous exec-lock acquisition made while a mutex is
	// lexically held.
	for _, pkg := range pass.Prog.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkLockOrder(pass, pkg, fd, acquires, witness)
			}
		}
	}
	return nil
}

// mutexEvent is one Lock/Unlock call in a function's synchronous frame.
type mutexEvent struct {
	key  string // rendered receiver expression ("s.mu")
	pos  token.Pos
	lock bool
}

func checkLockOrder(pass *Pass, pkg *Package, fd *ast.FuncDecl, acquires map[*types.Func]bool, witness map[*types.Func]*types.Func) {
	var events []mutexEvent
	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !sameLockFrame(stack, fd.Body) {
			return true
		}
		fn := calleeFunc(pkg.Info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch fn.Name() {
		case "Lock", "RLock":
			events = append(events, mutexEvent{key: types.ExprString(sel.X), pos: call.Pos(), lock: true})
		case "Unlock", "RUnlock":
			events = append(events, mutexEvent{key: types.ExprString(sel.X), pos: call.Pos(), lock: false})
		}
		return true
	})
	if len(events) == 0 {
		return
	}

	// heldAt returns the mutex lexically held at pos ("" if none): the
	// last prior Lock with no intervening Unlock of the same receiver.
	// Deferred Unlocks never appear as events (sameLockFrame excludes
	// defer), so a Lock/defer-Unlock pair holds to the end of the frame.
	heldAt := func(pos token.Pos) (string, token.Pos) {
		held := map[string]token.Pos{}
		for _, ev := range events {
			if ev.pos >= pos {
				break
			}
			if ev.lock {
				held[ev.key] = ev.pos
			} else {
				delete(held, ev.key)
			}
		}
		for key, at := range held {
			return key, at
		}
		return "", token.NoPos
	}

	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !sameLockFrame(stack, fd.Body) {
			return true
		}
		var chain string
		switch {
		case isEngineMethodCall(pkg.Info, call, "RunExclusive"):
			chain = "(*core.Engine).RunExclusive"
		default:
			fn := calleeFunc(pkg.Info, call)
			if fn == nil || !acquires[fn] {
				return true
			}
			chain = fn.Name()
			for w := witness[fn]; w != nil; w = witness[w] {
				chain += " → " + w.Name()
			}
			chain += " → (*core.Engine).RunExclusive"
		}
		key, at := heldAt(call.Pos())
		if key == "" {
			return true
		}
		pass.Reportf(call.Pos(),
			"%s acquires the engine execution lock (%s) while holding mutex %s (locked at line %d); exec lock is outermost — release the mutex first",
			selectorName(call), chain, key, pass.Prog.Fset.Position(at).Line)
		return true
	})
}

// sameLockFrame reports whether a node whose ancestor stack (rooted at
// body) contains no goroutine spawn, no defer, and no closure that is not
// immediately invoked — i.e. the node executes synchronously in the
// function's own frame, where lexical Lock/Unlock pairing is meaningful.
func sameLockFrame(stack []ast.Node, body ast.Node) bool {
	started := false
	for i, n := range stack {
		if !started {
			if n == body {
				started = true
			}
			continue
		}
		switch v := n.(type) {
		case *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.FuncLit:
			if i == 0 {
				return false
			}
			call, ok := stack[i-1].(*ast.CallExpr)
			if !ok || ast.Unparen(call.Fun) != ast.Node(v) {
				return false
			}
		}
	}
	return true
}

// isEngineMethodCall reports whether call invokes the named method on
// core.Engine.
func isEngineMethodCall(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	s, ok := info.Selections[sel]
	return ok && isNamed(s.Recv(), "internal/core", "Engine")
}
