// Package containment enforces the panic-containment invariant from
// PR 5 (DESIGN.md §4.5): any code that mutates table/catalog state while
// holding a writer lock must run under a containPanic-style recover
// frame ordered so that a panic in the mutation is converted to
// *PanicError BEFORE the lock releases — a contained panic can never
// leak a table lock.
//
// For each function the analyzer finds writer-lock tokens (`e.Lock()` on
// a catalog.TableEntry) and checks one of two shapes:
//
//   - defer-released (shape A): the token is released by a defer (direct
//     `defer e.Unlock()`, `defer unlock()`, or a deferred closure that
//     calls the unlock). Then the function must also defer a recover
//     frame, and LIFO order must run the recover BEFORE the unlock: the
//     unlock defer has to be registered first. applyLocked (exec.go) is
//     the canonical instance.
//
//   - manually released (shape B): the token is released by a plain call
//     on some path. A CFG dataflow tracks where the token is held; every
//     call made while it is held must be panic-trivial (a well-known
//     accessor), itself contained (defers a recover frame), or a
//     containing releaser — a package function that takes the entry,
//     defers the unlock, and defers the recover frame (the applyLocked
//     hand-off), which also ends the region.
//
// Reader locks are out of scope here (no mutation); lockorder owns their
// ordering and leak detection.
package containment

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

// Analyzer is the containment pass.
var Analyzer = &analysis.Analyzer{
	Name: "containment",
	Doc:  "writer-lock mutations must be dominated by a containPanic-style recover frame",
	Run:  run,
}

// trivialSafe lists callee names that cannot panic in a way the engine
// cares about inside a lock region: pure accessors, error formatting,
// time, and metrics. Matched by bare name; keep this list boring and
// auditable.
var trivialSafe = map[string]bool{
	// catalog/table accessors
	"Lookup": true, "Names": true, "Version": true, "TableVersion": true,
	"StampFor": true, "BumpTableVersion": true, "ID": true, "NumRows": true,
	"Schema": true, "Name": true, "Index": true, "IndexColumns": true,
	"Pooled": true, "Column": true, "NumColumns": true, "Kind": true,
	// lock traffic itself
	"Lock": true, "Unlock": true, "RLock": true, "RUnlock": true,
	// error/format/time/metrics
	"Error": true, "Errorf": true, "New": true, "Sprintf": true, "Sprint": true,
	"Since": true, "Now": true, "Observe": true, "Add": true, "Store": true,
	"Load": true, "len": true, "cap": true, "append": true, "delete": true,
	"make": true, "copy": true, "LastLSN": true,
}

func run(pass *analysis.Pass) error {
	contained, releasers := classifyFuncs(pass)
	for _, fd := range lintutil.FuncDecls(pass.Files) {
		checkFunc(pass, fd, contained, releasers)
	}
	return nil
}

// classifyFuncs partitions package-local functions into:
//   - contained: body directly defers a recover frame;
//   - releasers: contained AND the body defer-releases an entry lock —
//     the applyLocked-style containing releaser a caller may hand a held
//     lock to.
func classifyFuncs(pass *analysis.Pass) (contained, releasers map[*types.Func]bool) {
	contained = map[*types.Func]bool{}
	releasers = map[*types.Func]bool{}
	for _, fd := range lintutil.FuncDecls(pass.Files) {
		obj, _ := pass.ObjectOf(fd.Name).(*types.Func)
		if obj == nil {
			continue
		}
		if !lintutil.HasDeferredRecover(fd.Body) {
			continue
		}
		contained[obj] = true
		if hasDeferredUnlock(pass.TypesInfo, fd.Body) {
			releasers[obj] = true
		}
	}
	return contained, releasers
}

// hasDeferredUnlock reports whether the body defers an entry
// Unlock/RUnlock, defers a func-typed value named like an unlock
// closure, or defers a closure that calls either.
func hasDeferredUnlock(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if isUnlockCall(info, ds.Call) {
			found = true
		}
		if fl, ok := ds.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(fl.Body, func(m ast.Node) bool {
				if c, ok := m.(*ast.CallExpr); ok && isUnlockCall(info, c) {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// isUnlockCall matches `e.Unlock()` / `e.RUnlock()` on a TableEntry and
// invocations of unlock-named function values.
func isUnlockCall(info *types.Info, call *ast.CallExpr) bool {
	if _, m, ok := lintutil.MethodCall(info, call, catalogPkg, "TableEntry"); ok && (m == "Unlock" || m == "RUnlock") {
		return true
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && strings.Contains(strings.ToLower(id.Name), "unlock") {
		if v := lintutil.LocalVar(info, id); v != nil {
			if _, isFunc := v.Type().Underlying().(*types.Signature); isFunc {
				return true
			}
		}
	}
	return false
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, contained, releasers map[*types.Func]bool) {
	info := pass.TypesInfo

	// Writer tokens: receiver vars of e.Lock().
	hasWriter := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, m, ok := lintutil.MethodCall(info, call, catalogPkg, "TableEntry"); ok && m == "Lock" {
			hasWriter = true
		}
		return !hasWriter
	})
	if !hasWriter {
		return
	}

	deferCovered := hasDeferredUnlock(info, fd.Body)
	hasRecover := lintutil.HasDeferredRecover(fd.Body)

	if deferCovered {
		// Shape A: defer-released. The recover frame must exist and run
		// before the unlock on unwind.
		if !hasRecover {
			pass.Reportf(fd.Name.Pos(), "writer lock in %s is released by defer but no containPanic-style recover frame is registered; an uncontained panic unwinds through the unlock and escapes with the table state half-mutated", fd.Name.Name)
			return
		}
		checkDeferOrder(pass, fd)
		return
	}

	// Shape B: manually released. CFG dataflow over held tokens.
	checkManualFlow(pass, fd, contained, releasers)
}

// checkDeferOrder verifies LIFO ordering: the unlock defer must be
// registered BEFORE the recover-frame defer, so the recover runs first
// on unwind and converts the panic before the lock releases.
func checkDeferOrder(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	unlockPos := token.NoPos
	recoverPos := token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if isRecoverDefer(ds) {
			if recoverPos == token.NoPos {
				recoverPos = ds.Pos()
			}
			return false
		}
		releases := isUnlockCall(info, ds.Call)
		if fl, ok := ds.Call.Fun.(*ast.FuncLit); ok && !releases {
			ast.Inspect(fl.Body, func(m ast.Node) bool {
				if c, ok := m.(*ast.CallExpr); ok && isUnlockCall(info, c) {
					releases = true
				}
				return !releases
			})
		}
		if releases && unlockPos == token.NoPos {
			unlockPos = ds.Pos()
		}
		return false
	})
	if unlockPos != token.NoPos && recoverPos != token.NoPos && recoverPos < unlockPos {
		pass.Reportf(unlockPos, "unlock defer registered after the recover frame; LIFO order runs the unlock before containPanic, releasing the lock with the panic still in flight (register the unlock defer first)")
	}
}

func isRecoverDefer(ds *ast.DeferStmt) bool {
	switch fn := ast.Unparen(ds.Call.Fun).(type) {
	case *ast.Ident:
		return fn.Name == "containPanic" || fn.Name == "recoverToErr"
	case *ast.SelectorExpr:
		return fn.Sel.Name == "containPanic" || fn.Sel.Name == "recoverToErr"
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

// heldSet is the dataflow fact: writer tokens that may be held.
type heldSet map[*types.Var]bool

func (s heldSet) clone() heldSet {
	c := make(heldSet, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

// checkManualFlow tracks manually-released writer tokens across the CFG
// and flags unsafe calls made while one is held.
func checkManualFlow(pass *analysis.Pass, fd *ast.FuncDecl, contained, releasers map[*types.Func]bool) {
	g := cfgx.New(fd.Body)
	in := make([]heldSet, len(g.Blocks))
	in[g.Entry.Index] = heldSet{}
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
			manualTransfer(pass, st, s, contained, releasers, fd, report)
		}
		for _, succ := range b.Succs {
			changed := false
			if in[succ.Index] == nil {
				in[succ.Index] = st.clone()
				changed = true
			} else {
				for v := range st {
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

// manualTransfer applies one statement: acquisitions add tokens,
// releases and releaser hand-offs remove them, and any other non-trivial
// call while a token is held is reported.
func manualTransfer(pass *analysis.Pass, st heldSet, s ast.Stmt, contained, releasers map[*types.Func]bool, fd *ast.FuncDecl, report func(token.Pos, string, ...any)) {
	info := pass.TypesInfo
	ast.Inspect(s, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Entry lock traffic.
		if recv, m, ok := lintutil.MethodCall(info, call, catalogPkg, "TableEntry"); ok {
			var v *types.Var
			if id := lintutil.RootIdent(recv); id != nil {
				v = lintutil.LocalVar(info, id)
			}
			switch m {
			case "Lock":
				if v != nil {
					st[v] = true
				}
			case "Unlock":
				if v != nil {
					delete(st, v)
				}
			}
			return true
		}
		// Unlock-closure invocation ends its region; conservatively clear
		// all tokens (the closure releases what lockTables acquired).
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if v := lintutil.LocalVar(info, id); v != nil {
				if _, isFunc := v.Type().Underlying().(*types.Signature); isFunc {
					if strings.Contains(strings.ToLower(id.Name), "unlock") {
						for t := range st {
							delete(st, t)
						}
					} else {
						delete(st, v)
					}
					return true
				}
			}
		}
		if len(st) == 0 {
			return true
		}
		// Releaser hand-off: the callee takes over unlock + containment
		// for the entry it receives; drop tokens passed to it.
		if f := lintutil.CalleeFunc(info, call); f != nil {
			if releasers[f] {
				for _, arg := range call.Args {
					if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
						if v := lintutil.LocalVar(info, id); v != nil {
							delete(st, v)
						}
					}
				}
				return true
			}
			if contained[f] {
				return true
			}
		}
		name := calleeName(info, call)
		if name == "" || trivialSafe[name] {
			return true
		}
		report(call.Pos(), "call to %s while %s holds a manually released writer lock, with no panic containment; a panic here skips the unlock and wedges the table (extract a helper with defer unlock + defer containPanic)", name, fd.Name.Name)
		return true
	})
}

// calleeName extracts a bare callee name for trivial-safe matching;
// conversions come back empty.
func calleeName(info *types.Info, call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, ok := info.ObjectOf(fn).(*types.TypeName); ok {
			return "" // conversion
		}
		return fn.Name
	case *ast.SelectorExpr:
		if _, ok := info.ObjectOf(fn.Sel).(*types.TypeName); ok {
			return ""
		}
		return fn.Sel.Name
	case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.InterfaceType, *ast.StructType, *ast.FuncType:
		return ""
	}
	return ""
}
