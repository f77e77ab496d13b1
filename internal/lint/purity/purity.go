// Package purity enforces //sim:pure annotations: an annotated function
// is a side-effect-free probe (filter probes, cache occupancy sources,
// the runahead-fill horizon check) that the scheduler may call any
// number of times — including zero — without perturbing simulated
// state. The analyzer flags writes to state reachable from the receiver
// or from package scope:
//
//   - assignments, ++/--, delete/clear and copy-into through the
//     receiver, a package-level variable, or any local that aliases one
//     (pointer/slice/map/chan taint propagates through definitions)
//   - channel sends (a send is an effect regardless of target)
//   - pointer-receiver method calls rooted at tainted state, unless the
//     callee is itself annotated //sim:pure (value-receiver calls
//     operate on a copy and pass)
package purity

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/annot"
)

var Analyzer = &analysis.Analyzer{
	Name:        "purity",
	Doc:         "forbids receiver or package-state writes in //sim:pure functions",
	Contract:    "annotated probes are side-effect-free (safe to call zero or N times)",
	RuntimeTest: "TestFilterProbeSideEffectFree / cycle-skip differential on probe-heavy configs",
	Run:         run,
}

func run(pass *analysis.Pass) error {
	// Pure-annotated functions in this package, so pure probes may call
	// each other (Peek -> find) without tripping the callee rule.
	pure := make(map[types.Object]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && pass.Annotations.FuncHas(fn, annot.KindPure) {
				if obj := pass.TypesInfo.Defs[fn.Name]; obj != nil {
					pure[obj] = true
				}
			}
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !pass.Annotations.FuncHas(fn, annot.KindPure) {
				continue
			}
			checkPure(pass, fn, pure)
		}
	}
	return nil
}

func checkPure(pass *analysis.Pass, fn *ast.FuncDecl, pure map[types.Object]bool) {
	tainted := make(map[types.Object]bool)
	if fn.Recv != nil {
		for _, f := range fn.Recv.List {
			for _, name := range f.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					tainted[obj] = true
				}
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkAssign(pass, fn, n, tainted)
		case *ast.IncDecStmt:
			if reason := writeTarget(pass, n.X, tainted); reason != "" {
				pass.Reportf(n.Pos(), "//sim:pure %s mutates %s: probes must be side-effect-free",
					fn.Name.Name, reason)
			}
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "//sim:pure %s sends on a channel: a send is a side effect "+
				"whether or not the target is local", fn.Name.Name)
		case *ast.CallExpr:
			checkCall(pass, fn, n, tainted, pure)
		}
		return true
	})
}

func checkAssign(pass *analysis.Pass, fn *ast.FuncDecl, a *ast.AssignStmt, tainted map[types.Object]bool) {
	for _, lhs := range a.Lhs {
		if a.Tok == token.DEFINE {
			continue // new binding, checked below for taint propagation
		}
		if reason := writeTarget(pass, lhs, tainted); reason != "" {
			pass.Reportf(a.Pos(), "//sim:pure %s writes %s: probes must be side-effect-free",
				fn.Name.Name, reason)
		}
	}
	// Taint propagation: a local defined from tainted state through a
	// reference-like type aliases that state.
	for i, lhs := range a.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || i >= len(a.Rhs) {
			continue
		}
		var obj types.Object
		if a.Tok == token.DEFINE {
			obj = pass.TypesInfo.Defs[id]
		} else {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil || !referenceLike(obj.Type()) {
			continue
		}
		if root := rootObj(pass, a.Rhs[i]); root != nil && (tainted[root] || isPackageVar(root)) {
			tainted[obj] = true
		}
	}
}

func checkCall(pass *analysis.Pass, fn *ast.FuncDecl, call *ast.CallExpr, tainted map[types.Object]bool, pure map[types.Object]bool) {
	// Builtins with write semantics.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "delete", "clear":
				if len(call.Args) > 0 {
					if reason := writeTarget(pass, call.Args[0], tainted); reason != "" {
						pass.Reportf(call.Pos(), "//sim:pure %s calls %s on %s: probes must be side-effect-free",
							fn.Name.Name, id.Name, reason)
					}
				}
			case "copy":
				if len(call.Args) > 0 {
					if reason := writeTarget(pass, call.Args[0], tainted); reason != "" {
						pass.Reportf(call.Pos(), "//sim:pure %s copies into %s: probes must be side-effect-free",
							fn.Name.Name, reason)
					}
				}
			}
		}
		return
	}
	// Pointer-receiver method calls rooted at tainted state: the callee
	// can mutate what this probe only observes, so it must be //sim:pure
	// itself.
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return
	}
	callee := analysis.CalleeFunc(pass.TypesInfo, call)
	if callee == nil || pure[callee] {
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	if _, ptrRecv := sig.Recv().Type().(*types.Pointer); !ptrRecv {
		return // value receiver operates on a copy
	}
	root := rootObj(pass, sel.X)
	if root == nil || !(tainted[root] || isPackageVar(root)) {
		return
	}
	pass.Reportf(call.Pos(), "//sim:pure %s calls %s.%s, a pointer-receiver method on observed state: "+
		"annotate the callee //sim:pure or route the probe through read-only accessors",
		fn.Name.Name, types.ExprString(sel.X), callee.Name())
}

// writeTarget classifies lhs as a forbidden write target. It returns a
// human-readable description of the target, or "" if the write is to
// untainted local state.
func writeTarget(pass *analysis.Pass, lhs ast.Expr, tainted map[types.Object]bool) string {
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return ""
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return ""
		}
		if isPackageVar(obj) {
			return "package variable " + id.Name
		}
		if tainted[obj] {
			// Rebinding the alias itself (s = s[1:]) does not write the
			// underlying state; only element/field writes do.
			return ""
		}
		return ""
	}
	root := rootObj(pass, lhs)
	if root == nil {
		return ""
	}
	if tainted[root] {
		return "receiver state (" + types.ExprString(lhs) + ")"
	}
	if isPackageVar(root) {
		return "package state (" + types.ExprString(lhs) + ")"
	}
	return ""
}

// rootObj unwraps selector / index / star / slice chains to the base
// identifier's object.
func rootObj(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			// A package-qualified selector (pkg.Var) roots at the selected
			// object, not the package name.
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
					return pass.TypesInfo.Uses[x.Sel]
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			return nil // value produced by a call: not a trackable root
		case *ast.Ident:
			return pass.TypesInfo.Uses[x]
		default:
			return nil
		}
	}
}

// isPackageVar reports whether obj is a package-scope variable.
func isPackageVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// referenceLike reports whether t aliases underlying storage when
// copied (so taint flows through a plain assignment).
func referenceLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}
