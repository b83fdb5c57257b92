// Package lockorder enforces the engine's single global table-lock
// acquisition order (DESIGN.md §2/§4.5: catalog.TableEntry locks are
// taken in ascending TableEntry.ID order, established in PR 5).
//
// The analyzer reports:
//
//  1. direct acquisitions of table-entry locks outside the hique serving
//     layer (only the root package may touch entry locks; everything else
//     must go through the DB API);
//  2. a second table lock acquired while one may already be held,
//     outside the one sanctioned lock loop (rule 4);
//  3. calls to lock-acquiring functions (lockTables or any package
//     function that takes entry locks, directly or through another)
//     while an entry lock is held — the inter-procedural deadlock shape;
//  4. entry locks acquired inside a loop without either releasing within
//     the iteration or ranging over a lockSet — the named slice type
//     whose values are ID-sorted by construction, which is itself
//     checked: a lockSet may only be built after a sort step;
//  5. lock-leak paths: an acquisition whose release is unreachable on
//     some path to return (unless the unlock escapes to the caller —
//     ownership transfer, the planLocked contract).
//
// False positives are suppressed with `//lint:allow lockorder <reason>`.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hique/internal/lint/analysis"
	"hique/internal/lint/cfgx"
	"hique/internal/lint/lintutil"
)

const catalogPkg = "hique/internal/catalog"

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "table-entry locks follow the global ascending-ID acquisition order",
	Run:  run,
}

// entryAcquire describes one direct TableEntry Lock/RLock call site.
type entryAcquire struct {
	call *ast.CallExpr
	recv *types.Var // receiver root variable, nil when unidentifiable
	wr   bool       // writer lock
}

func run(pass *analysis.Pass) error {
	acquirers := acquirerSet(pass)
	rootPkg := isServingLayer(pass.Pkg)
	for _, fd := range lintutil.FuncDecls(pass.Files) {
		checkFunc(pass, fd, acquirers, rootPkg)
	}
	return nil
}

// isServingLayer reports whether the package is allowed to touch entry
// locks directly: the module root (package hique) owns the serving
// paths; internal/* and cmd/* must route through the DB API. The
// catalog package itself (lock methods' home) is exempt too.
func isServingLayer(pkg *types.Package) bool {
	p := pkg.Path()
	return p == "hique" || lintutil.PkgPathIs(p, catalogPkg) ||
		strings.HasSuffix(p, ".test") // synthesized test main packages
}

// acquirerSet computes the package-local functions that acquire table
// locks — directly, through lockTables, or through another acquirer —
// calling one of these while holding an entry lock risks an
// out-of-order second acquisition.
func acquirerSet(pass *analysis.Pass) map[*types.Func]bool {
	set := map[*types.Func]bool{}
	decls := lintutil.FuncDecls(pass.Files)
	for changed := true; changed; {
		changed = false
		for _, fd := range decls {
			obj, _ := pass.ObjectOf(fd.Name).(*types.Func)
			if obj != nil && !set[obj] && acquires(pass.TypesInfo, fd.Body, set) {
				set[obj] = true
				changed = true
			}
		}
	}
	return set
}

// acquires reports whether the body takes an entry lock directly, calls
// lockTables, or calls a function already known to acquire.
func acquires(info *types.Info, body *ast.BlockStmt, known map[*types.Func]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		_, m, isEntry := lintutil.MethodCall(info, call, catalogPkg, "TableEntry")
		found = (isEntry && (m == "Lock" || m == "RLock")) || isLockTablesCall(info, call) ||
			known[lintutil.CalleeFunc(info, call)]
		return !found
	})
	return found
}

func isLockTablesCall(info *types.Info, call *ast.CallExpr) bool {
	f := lintutil.CalleeFunc(info, call)
	return f != nil && f.Name() == "lockTables"
}

// isLockSet reports whether t is the serving layer's lockSet: the named
// entry-slice type whose values are deduplicated and ID-sorted by
// construction, so ranging over one is the legal lock loop.
func isLockSet(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "lockSet"
}

// checkLockSetBuilds enforces the construction half of rule 4: a
// conversion to lockSet, a lockSet literal, or a make(lockSet, ...) must
// come after a sort step in the same function.
func checkLockSetBuilds(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var built ast.Expr
		switch x := n.(type) {
		case *ast.CompositeLit:
			built = x
		case *ast.CallExpr:
			if tv, ok := pass.TypesInfo.Types[x.Fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
				built = x
			}
		}
		if built == nil {
			return true
		}
		if tv, ok := pass.TypesInfo.Types[built]; ok && isLockSet(tv.Type) && !hasSortBefore(pass, fd.Body, built.Pos()) {
			pass.Reportf(built.Pos(), "lockSet built without sorting by table ID first; the global acquisition order is broken")
		}
		return true
	})
}

// hasSortBefore reports a sort.* / slices.Sort* call anywhere in the
// body before pos — the ordering step that legalises building a lockSet.
func hasSortBefore(pass *analysis.Pass, body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= pos {
			return true
		}
		f := lintutil.CalleeFunc(pass.TypesInfo, call)
		if f == nil || f.Pkg() == nil {
			return true
		}
		if (f.Pkg().Path() == "sort" || f.Pkg().Path() == "slices") &&
			(strings.HasPrefix(f.Name(), "Sort") || strings.HasPrefix(f.Name(), "Slice")) {
			found = true
		}
		return !found
	})
	return found
}

// lockState is the dataflow fact: the set of holder tokens that may be
// held. A token is the receiver var of a direct acquisition or the
// unlock-func var bound from a lockTables call.
type lockState map[*types.Var]bool

func (s lockState) clone() lockState {
	c := make(lockState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s lockState) equal(o lockState) bool {
	if len(s) != len(o) {
		return false
	}
	for k := range s {
		if !o[k] {
			return false
		}
	}
	return true
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, acquirers map[*types.Func]bool, rootPkg bool) {
	info := pass.TypesInfo
	checkLockSetBuilds(pass, fd)
	// Fast scan: any lock-related activity at all?
	var acquires []entryAcquire
	anyLockTables := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, m, ok := lintutil.MethodCall(info, call, catalogPkg, "TableEntry"); ok && (m == "Lock" || m == "RLock") {
			var v *types.Var
			if id := lintutil.RootIdent(recv); id != nil {
				v = lintutil.LocalVar(info, id)
			}
			acquires = append(acquires, entryAcquire{call: call, recv: v, wr: m == "Lock"})
		}
		if isLockTablesCall(info, call) {
			anyLockTables = true
		}
		return true
	})
	if len(acquires) == 0 && !anyLockTables {
		return
	}

	// Rule 1: entry locks belong to the serving layer.
	if !rootPkg {
		for _, a := range acquires {
			pass.Reportf(a.call.Pos(), "table-entry lock acquired outside the hique serving layer; route through the DB API (lockTables)")
		}
	}

	// Rule 4: acquisition loops. A function whose every acquisition sits
	// in a loop over a lockSet is the sanctioned lock loop, exempt from
	// the per-variable held-set rules below: it acquires through the
	// sorted set and leaves the matching releases to its caller, which
	// the token model cannot see.
	sanctioned := checkLoops(pass, fd, len(acquires))

	// Rules 2, 3, 5: path-sensitive held-set tracking.
	checkHeldFlow(pass, fd, acquirers, sanctioned)
}

// checkLoops flags entry-lock acquisitions inside a loop body unless the
// same loop body releases them (per-iteration critical section) or the
// loop ranges over a lockSet (the ordered batch acquisition). It reports
// whether all of the function's acquisitions sit in lockSet loops.
func checkLoops(pass *analysis.Pass, fd *ast.FuncDecl, acquires int) (sanctioned bool) {
	info := pass.TypesInfo
	ordered := 0
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		overLockSet := false
		switch l := n.(type) {
		case *ast.ForStmt:
			body = l.Body
		case *ast.RangeStmt:
			body = l.Body
			overLockSet = isLockSet(info.TypeOf(l.X))
		default:
			return true
		}
		var acq []*ast.CallExpr
		releases := false
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, m, ok := lintutil.MethodCall(info, call, catalogPkg, "TableEntry"); ok {
				switch m {
				case "Lock", "RLock":
					acq = append(acq, call)
				case "Unlock", "RUnlock":
					releases = true
				}
			}
			return true
		})
		if overLockSet {
			ordered += len(acq)
			return true
		}
		if !releases {
			for _, call := range acq {
				pass.Reportf(call.Pos(), "table locks acquired in a loop and held across iterations without table-ID ordering; range over a lockSet (lockTables builds one)")
			}
		}
		return true
	})
	return acquires > 0 && ordered == acquires
}

// checkHeldFlow runs the may-hold dataflow over the CFG: second
// acquisitions without an ID guard, acquirer calls while held, and
// leak-at-exit paths.
func checkHeldFlow(pass *analysis.Pass, fd *ast.FuncDecl, acquirers map[*types.Func]bool, sanctioned bool) {
	info := pass.TypesInfo
	g := cfgx.New(fd.Body)

	// Deferred releases and transfers: a deferred e.Unlock()/unlock()
	// covers every exit; collect the tokens they release.
	deferred := map[*types.Var]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		for _, v := range releaseTargets(info, ds.Call) {
			deferred[v] = true
		}
		if fl, ok := ds.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(fl.Body, func(m ast.Node) bool {
				if c, ok := m.(*ast.CallExpr); ok {
					for _, v := range releaseTargets(info, c) {
						deferred[v] = true
					}
				}
				return true
			})
		}
		return true
	})

	in := make([]lockState, len(g.Blocks))
	in[g.Entry.Index] = lockState{}
	work := []*cfgx.Block{g.Entry}
	reported := map[token.Pos]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos, format, args...)
		}
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		st := in[b.Index].clone()
		for _, s := range b.Stmts {
			st = transfer(pass, st, s, acquirers, sanctioned, report)
		}
		if b.Return && !sanctioned {
			// Leak check: tokens still held that are neither deferred nor
			// escaping via this return are stuck.
			var ret *ast.ReturnStmt
			if n := len(b.Stmts); n > 0 {
				ret, _ = b.Stmts[n-1].(*ast.ReturnStmt)
			}
			for v := range st {
				if deferred[v] || escapesVia(info, ret, v) || escapesFunc(info, fd, v) {
					continue
				}
				pos := fd.Pos()
				if ret != nil {
					pos = ret.Pos()
				}
				report(pos, "table lock (%s) may still be held on this return path: release is unreachable", v.Name())
			}
		}
		for _, succ := range b.Succs {
			merged := st.clone()
			changed := false
			if in[succ.Index] == nil {
				in[succ.Index] = merged
				changed = true
			} else {
				for v := range merged {
					if !in[succ.Index][v] {
						in[succ.Index][v] = true
						changed = true
					}
				}
			}
			if changed {
				work = append(work, succ)
			}
		}
	}
}

// transfer applies one statement to the held-set.
func transfer(pass *analysis.Pass, st lockState, s ast.Stmt, acquirers map[*types.Func]bool, sanctioned bool, report func(token.Pos, string, ...any)) lockState {
	info := pass.TypesInfo
	ast.Inspect(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closure bodies run later; not on this path
		}
		if _, ok := n.(*ast.DeferStmt); ok {
			return false // handled via the deferred set
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Direct entry lock traffic.
		if recv, m, ok := lintutil.MethodCall(info, call, catalogPkg, "TableEntry"); ok {
			var v *types.Var
			if id := lintutil.RootIdent(recv); id != nil {
				v = lintutil.LocalVar(info, id)
			}
			switch m {
			case "Lock", "RLock":
				if len(st) > 0 && !sanctioned {
					report(call.Pos(), "second table lock acquired while one may be held; route through lockTables")
				}
				if v != nil {
					st[v] = true
				}
			case "Unlock", "RUnlock":
				if v != nil {
					delete(st, v)
				}
			}
			return true
		}
		// lockTables: the unlock binding becomes the token.
		if isLockTablesCall(info, call) {
			if len(st) > 0 {
				report(call.Pos(), "lockTables called while a table lock is already held; the combined acquisition is unordered")
			}
			// The token is bound by the enclosing assignment; handled below.
			return true
		}
		// Calling another acquirer while held.
		if len(st) > 0 {
			if f := lintutil.CalleeFunc(info, call); f != nil && acquirers[f] {
				report(call.Pos(), "call to %s (which acquires table locks) while a table lock is held; possible out-of-order second acquisition", f.Name())
			}
		}
		// Calling a func-typed local releases whatever it guards
		// (unlock()/runlock() closures); drop its token.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if v := lintutil.LocalVar(info, id); v != nil {
				if _, isFunc := v.Type().Underlying().(*types.Signature); isFunc {
					delete(st, v)
					// A bare unlock closure may also release direct tokens it
					// captured; be conservative only for same-named idioms.
					if strings.Contains(strings.ToLower(id.Name), "unlock") {
						for t := range st {
							if _, sig := t.Type().Underlying().(*types.Signature); !sig {
								delete(st, t)
							}
						}
					}
				}
			}
		}
		return true
	})
	// Track unlock bindings: `unlock, locked := db.lockTables(...)`.
	if as, ok := s.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok && isLockTablesCall(info, call) {
			if len(as.Lhs) > 0 {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
					if v := lintutil.LocalVar(info, id); v != nil {
						st[v] = true
					}
				} else {
					report(as.Pos(), "lockTables result's unlock function is discarded; the table locks can never be released")
				}
			}
		}
	}
	return st
}

// releaseTargets returns the held tokens a call releases: the receiver
// of Unlock/RUnlock, or the func-typed variable being invoked.
func releaseTargets(info *types.Info, call *ast.CallExpr) []*types.Var {
	var out []*types.Var
	if recv, m, ok := lintutil.MethodCall(info, call, catalogPkg, "TableEntry"); ok && (m == "Unlock" || m == "RUnlock") {
		if id := lintutil.RootIdent(recv); id != nil {
			if v := lintutil.LocalVar(info, id); v != nil {
				out = append(out, v)
			}
		}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if v := lintutil.LocalVar(info, id); v != nil {
			if _, isFunc := v.Type().Underlying().(*types.Signature); isFunc {
				out = append(out, v)
			}
		}
	}
	return out
}

// escapesVia reports whether the return statement transfers token v to
// the caller: v itself is returned, or a returned func literal releases
// v (lockTables' closure contract).
func escapesVia(info *types.Info, ret *ast.ReturnStmt, v *types.Var) bool {
	if ret == nil {
		return false
	}
	for _, e := range ret.Results {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok && lintutil.LocalVar(info, id) == v {
			return true
		}
		if fl, ok := ast.Unparen(e).(*ast.FuncLit); ok {
			released := false
			ast.Inspect(fl.Body, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					for _, t := range releaseTargets(info, c) {
						if t == v {
							released = true
						}
					}
				}
				return !released
			})
			if released {
				return true
			}
		}
	}
	return false
}

// escapesFunc reports whether v escapes the function some other way —
// passed as a call argument, assigned to a named result or outer
// location, or released inside a func literal the function hands out.
// Conservative: any appearance of v as a non-receiver argument or on
// either side of an assignment to a non-local counts.
func escapesFunc(info *types.Info, fd *ast.FuncDecl, v *types.Var) bool {
	// Named result variables escape by definition.
	if fd.Type.Results != nil {
		for _, f := range fd.Type.Results.List {
			for _, n := range f.Names {
				if info.ObjectOf(n) == v {
					return true
				}
			}
		}
	}
	escaped := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if escaped {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			for _, arg := range x.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok && lintutil.LocalVar(info, id) == v {
					escaped = true
				}
			}
		case *ast.AssignStmt:
			for _, rhs := range x.Rhs {
				if id, ok := ast.Unparen(rhs).(*ast.Ident); ok && lintutil.LocalVar(info, id) == v {
					escaped = true
				}
			}
		}
		return !escaped
	})
	return escaped
}
