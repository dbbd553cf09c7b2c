package analysis

import (
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// KernelParity cross-references kernel-name string literals across the
// backends and the graph decoder. The library's dispatch contract is that
// the reference backend implements every kernel; accelerated backends
// (native, webgl) override subsets of it, and the graph-model decoder maps
// GraphDef ops onto those kernel names. All of this is stitched together
// with string literals, so a typo — a backend registering "Sofmax", a
// decoder case for an op nobody implements — compiles fine and fails at
// the first dispatch. This module-level analyzer rebuilds the three name
// sets from source and reports:
//
//   - backend kernels with no reference implementation (orphaned
//     registrations that shadow nothing and can never fall back), and
//   - decoder op cases that resolve to no registered kernel, modulo the
//     known op→kernel aliases and the structural ops the executor lowers
//     without dispatching.
//
// The reference set is the RegisterRef("Name", ...) calls plus the entries
// of the element-wise table (a []ElementwiseOp literal, each entry's Name),
// which the reference tier registers in one loop. The entries of the range
// table (a []RangeKernel literal) are backend kernels: the device tiers
// install every one in a loop, and each needs a reference kernel of its
// name. If no reference kernels are in scope (e.g. vetting a single
// unrelated package), the analyzer is silent.
var KernelParity = &Analyzer{
	Name:   "kernelparity",
	Doc:    "backend kernel registrations and decoder op cases must resolve to reference kernels",
	Module: true,
	Run:    runKernelParity,
}

// kernelNamePattern recognizes kernel-name literals ("Conv2D",
// "_FusedMatMul") and rejects incidental strings (format strings, paths).
var kernelNamePattern = regexp.MustCompile(`^_?[A-Z][A-Za-z0-9_]*$`)

// decoderAliases maps graph ops the decoder lowers onto a differently
// named kernel: BiasAdd executes as broadcast Add, rank-2 MatMul as
// BatchMatMul, Pad as PadV2.
var decoderAliases = map[string]string{
	"BiasAdd": "Add",
	"MatMul":  "BatchMatMul",
	"Pad":     "PadV2",
}

// structuralOps are graph ops the executor handles without any kernel
// dispatch: graph plumbing (Placeholder, Const, Identity) and the
// zero-copy reshapes.
var structuralOps = map[string]bool{
	"Placeholder": true, "Const": true, "Identity": true,
	"Reshape": true, "Flatten": true,
}

// namedLiteral is one collected kernel-name occurrence.
type namedLiteral struct {
	name string
	pos  token.Pos
	pkg  string
}

func runKernelParity(pass *Pass) error {
	refSet := map[string]bool{}
	var backendRegs []namedLiteral
	var decoderCases []namedLiteral

	for _, pkg := range pass.Prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok {
					collectTables(gd, pkg.Path, refSet, &backendRegs)
					continue
				}
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				inRegister := strings.HasPrefix(fd.Name.Name, "register") ||
					strings.HasPrefix(fd.Name.Name, "Register") || fd.Name.Name == "init"
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch node := n.(type) {
					case *ast.CallExpr:
						collectRegistration(pkg.Path, node, inRegister, refSet, &backendRegs)
					case *ast.CompositeLit:
						// Table-driven registration: {"Add", impl, ...}
						// entries inside register* functions.
						if inRegister {
							if name, pos, ok := firstStringElem(node); ok {
								backendRegs = append(backendRegs, namedLiteral{name, pos, pkg.Path})
							}
						}
					case *ast.SwitchStmt:
						// The decoder idiom: switch n.Op { case "Conv2D": ... }.
						if sel, ok := node.Tag.(*ast.SelectorExpr); ok && sel.Sel.Name == "Op" {
							for _, stmt := range node.Body.List {
								cc, ok := stmt.(*ast.CaseClause)
								if !ok {
									continue
								}
								for _, e := range cc.List {
									if name, ok := stringLit(e); ok && kernelNamePattern.MatchString(name) {
										decoderCases = append(decoderCases, namedLiteral{name, e.Pos(), pkg.Path})
									}
								}
							}
						}
					}
					return true
				})
			}
		}
	}

	if len(refSet) == 0 {
		return nil
	}

	sort.Slice(backendRegs, func(i, j int) bool { return backendRegs[i].pos < backendRegs[j].pos })
	reported := map[string]bool{}
	for _, reg := range backendRegs {
		if refSet[reg.name] {
			continue
		}
		key := reg.pkg + "/" + reg.name
		if reported[key] {
			continue
		}
		reported[key] = true
		pass.Reportf(reg.pos,
			"backend kernel %q has no reference implementation — orphaned registration (typo, or missing RegisterRef)",
			reg.name)
	}

	sort.Slice(decoderCases, func(i, j int) bool { return decoderCases[i].pos < decoderCases[j].pos })
	for _, c := range decoderCases {
		name := c.name
		if structuralOps[name] || refSet[name] {
			continue
		}
		if alias, ok := decoderAliases[name]; ok && refSet[alias] {
			continue
		}
		pass.Reportf(c.pos,
			"graph decoder handles op %q but no reference kernel of that name (or known alias) is registered",
			name)
	}
	return nil
}

// collectRegistration harvests kernel names from registration calls:
// RegisterRef("Name", ...) feeds the reference set; method calls
// .register("Name", ...) and — inside register*/init functions — calls to
// local helper closures like bin("Add", ...) feed the backend set.
func collectRegistration(pkgPath string, call *ast.CallExpr, inRegister bool,
	refSet map[string]bool, backendRegs *[]namedLiteral) {
	if len(call.Args) == 0 {
		return
	}
	name, ok := stringLit(call.Args[0])
	if !ok || !kernelNamePattern.MatchString(name) {
		return
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "RegisterRef" {
			refSet[name] = true
			return
		}
		// A lowercase local helper (bin, un, pool, cmp...) inside a
		// registration function: the literal it carries is a kernel name.
		if inRegister && fun.Name != "panic" && !ast.IsExported(fun.Name) {
			*backendRegs = append(*backendRegs, namedLiteral{name, call.Args[0].Pos(), pkgPath})
		}
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "RegisterRef":
			refSet[name] = true
		case "register", "Register":
			*backendRegs = append(*backendRegs, namedLiteral{name, call.Args[0].Pos(), pkgPath})
		}
	}
}

// collectTables harvests the two kernel tables: the Name of every entry
// of a []ElementwiseOp composite literal feeds the reference set, that of
// a []RangeKernel literal the backend set.
func collectTables(gd *ast.GenDecl, pkgPath string, refSet map[string]bool, backendRegs *[]namedLiteral) {
	ast.Inspect(gd, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		arr, ok := lit.Type.(*ast.ArrayType)
		if !ok {
			return true
		}
		elt, ok := arr.Elt.(*ast.Ident)
		if !ok || (elt.Name != "ElementwiseOp" && elt.Name != "RangeKernel") {
			return true
		}
		for _, e := range lit.Elts {
			entry, ok := e.(*ast.CompositeLit)
			if !ok {
				continue
			}
			for _, f := range entry.Elts {
				kv, ok := f.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || key.Name != "Name" {
					continue
				}
				if name, ok := stringLit(kv.Value); ok {
					if elt.Name == "ElementwiseOp" {
						refSet[name] = true
					} else {
						*backendRegs = append(*backendRegs, namedLiteral{name, kv.Value.Pos(), pkgPath})
					}
				}
			}
		}
		return false
	})
}

// stringLit unquotes a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// firstStringElem returns the first element of a composite literal when it
// is a kernel-name-shaped string literal (the {"Add", impl} table idiom).
func firstStringElem(lit *ast.CompositeLit) (string, token.Pos, bool) {
	if len(lit.Elts) == 0 {
		return "", token.NoPos, false
	}
	name, ok := stringLit(lit.Elts[0])
	if !ok || !kernelNamePattern.MatchString(name) {
		return "", token.NoPos, false
	}
	return name, lit.Elts[0].Pos(), true
}
