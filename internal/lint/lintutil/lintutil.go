// Package lintutil holds the type- and object-resolution helpers the
// hique-vet analyzers share: matching calls against the engine's
// well-known types (catalog.TableEntry, storage.Table) by
// package-path suffix, so the same analyzers run unchanged over the real
// tree and over analysistest fixtures that stub those packages under
// identical import paths.
package lintutil

import (
	"go/ast"
	"go/types"
	"strings"
)

// PkgPathIs reports whether a package path denotes the named hique
// package: an exact match, or the canonical "hique/"-rooted suffix (so
// fixture stubs and vendored copies still match).
func PkgPathIs(path, want string) bool {
	return path == want || strings.HasSuffix(path, "/"+want)
}

// NamedType returns the named type (after pointer indirection) of t, or
// nil.
func NamedType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// IsTypeFrom reports whether t (or *t) is the named type pkgPath.name,
// with pkgPath matched per PkgPathIs.
func IsTypeFrom(t types.Type, pkgPath, name string) bool {
	n := NamedType(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == name && PkgPathIs(n.Obj().Pkg().Path(), pkgPath)
}

// MethodCall resolves a call expression to (receiver expr, method name)
// when the callee is a method on a value whose type matches
// pkgPath.typeName. Returns ok=false otherwise.
func MethodCall(info *types.Info, call *ast.CallExpr, pkgPath, typeName string) (recv ast.Expr, method string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return nil, "", false
	}
	tv, okTV := info.Types[sel.X]
	if !okTV {
		return nil, "", false
	}
	if !IsTypeFrom(tv.Type, pkgPath, typeName) {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// CalleeFunc resolves a call's static callee, following selector or
// plain identifier callees. Returns nil for calls through function
// values, type conversions, and builtins.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := info.ObjectOf(id).(*types.Func)
	return f
}

// PkgFuncCall reports whether call statically invokes the function (or
// method) named name declared in a package matching pkgPath.
func PkgFuncCall(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	f := CalleeFunc(info, call)
	return f != nil && f.Name() == name && f.Pkg() != nil && PkgPathIs(f.Pkg().Path(), pkgPath)
}

// RootIdent walks selectors/indexes/parens down to the base identifier
// of an expression (e.g. db.cat → db, entries[i] → entries). Returns nil
// when the base is not an identifier.
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			return nil
		default:
			return nil
		}
	}
}

// LocalVar returns the *types.Var an identifier denotes when it is a
// function-local variable (not a field, package-level var, or constant).
func LocalVar(info *types.Info, id *ast.Ident) *types.Var {
	v, ok := info.ObjectOf(id).(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if v.Parent() == nil || v.Pkg() == nil {
		return nil
	}
	// Package-scope variables have the package scope as parent.
	if v.Parent() == v.Pkg().Scope() {
		return nil
	}
	return v
}

// FuncDecls yields every function declaration with a body in the files.
func FuncDecls(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// HasDeferredRecover reports whether the function body directly defers a
// containPanic-style frame: `defer containPanic(&err)` (any function
// named containPanic / recoverToErr) or a deferred func literal whose
// body calls recover().
func HasDeferredRecover(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		// Do not descend into nested function literals except via defers.
		if ds, ok := n.(*ast.DeferStmt); ok {
			if isRecoverFrame(ds.Call) {
				found = true
			}
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return true
	})
	return found
}

func isRecoverFrame(call *ast.CallExpr) bool {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn.Name == "containPanic" || fn.Name == "recoverToErr" {
			return true
		}
	case *ast.SelectorExpr:
		if fn.Sel.Name == "containPanic" || fn.Sel.Name == "recoverToErr" {
			return true
		}
	case *ast.FuncLit:
		calls := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "recover" {
					calls = true
				}
			}
			return !calls
		})
		return calls
	}
	return false
}
