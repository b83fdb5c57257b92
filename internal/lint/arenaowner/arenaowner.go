// Package arenaowner enforces page-arena ownership (DESIGN.md §3): a
// value acquired from the arena — a `storage.NewPooledTable` result, or
// the result of a function whose name ends in "Pooled" — must be
// released exactly once on every path, including error and early-return
// paths. The
// analyzer runs a may-state dataflow over the cfgx control-flow graph:
//
//	Owned     — holds arena pages; Release is still due
//	DeferRel  — a `defer x.Release()` covers every exit
//	Released  — Release already ran on this path
//	Escaped   — ownership transferred out (returned, stored, passed)
//
// and reports:
//
//   - leaks: a return path on which an Owned value was neither released,
//     deferred, nor escaped;
//   - double-Release: a Release on a path where the value can only be
//     already-Released;
//   - use-after-Release: any other use on such a path.
//
// Passing the value to a function or capturing it in a closure counts as
// an ownership transfer/borrow (Escaped) — the engine's callbacks make
// callee-side tracking the caller's responsibility, and a
// may-analysis that guessed otherwise would drown the tree in false
// positives. Reassigning the variable while it may still be Owned is a
// leak and reported at the assignment.
package arenaowner

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hique/internal/lint/analysis"
	"hique/internal/lint/cfgx"
	"hique/internal/lint/lintutil"
)

const storagePkg = "hique/internal/storage"

// Analyzer is the arenaowner pass.
var Analyzer = &analysis.Analyzer{
	Name: "arenaowner",
	Doc:  "pooled arena values are released exactly once on every path",
	Run:  run,
}

// state is a bitset of may-facts about one tracked variable.
type state uint8

const (
	owned state = 1 << iota
	deferRel
	released
	escaped
)

type stateMap map[*types.Var]state

func (m stateMap) clone() stateMap {
	c := make(stateMap, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func run(pass *analysis.Pass) error {
	for _, fd := range lintutil.FuncDecls(pass.Files) {
		checkFunc(pass, fd, fd.Body)
	}
	// Function literals get their own independent pass: ownership created
	// inside a closure must still balance inside it.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				checkFunc(pass, nil, fl.Body)
			}
			return true
		})
	}
	return nil
}

// acquisition reports whether the expression mints a new owned arena
// value: storage.NewPooledTable(...), or a call returning a pooled table
// by convention (name ends in "Pooled").
func acquisition(info *types.Info, e ast.Expr) bool {
	x, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if lintutil.PkgFuncCall(info, x, storagePkg, "NewPooledTable") {
		return true
	}
	f := lintutil.CalleeFunc(info, x)
	return f != nil && strings.HasSuffix(f.Name(), "Pooled")
}

// releaseRecv returns the variable whose Release method is being called,
// when the receiver is a storage.Table.
func releaseRecv(info *types.Info, call *ast.CallExpr) *types.Var {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" {
		return nil
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return nil
	}
	if !lintutil.IsTypeFrom(tv.Type, storagePkg, "Table") {
		return nil
	}
	id := lintutil.RootIdent(sel.X)
	if id == nil {
		return nil
	}
	return lintutil.LocalVar(info, id)
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, body *ast.BlockStmt) {
	info := pass.TypesInfo
	// Quick scan: does the body acquire anything? (Skip the dataflow for
	// the vast majority of functions.)
	acquires := false
	ast.Inspect(body, func(n ast.Node) bool {
		if acquires {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok && fd != nil {
			return false // literals are analyzed separately
		}
		if e, ok := n.(ast.Expr); ok && acquisition(info, e) {
			acquires = true
		}
		return !acquires
	})
	if !acquires {
		return
	}

	g := cfgx.New(body)
	in := make([]stateMap, len(g.Blocks))
	in[g.Entry.Index] = stateMap{}
	work := []*cfgx.Block{g.Entry}
	reported := map[token.Pos]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos, format, args...)
		}
	}

	fname := "func literal"
	if fd != nil {
		fname = fd.Name.Name
	}

	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		st := in[b.Index].clone()
		for _, s := range b.Stmts {
			transfer(pass, st, s, report)
		}
		if b.Return {
			var ret *ast.ReturnStmt
			if n := len(b.Stmts); n > 0 {
				ret, _ = b.Stmts[n-1].(*ast.ReturnStmt)
			}
			for v, vs := range st {
				if vs&owned == 0 || vs&(deferRel|escaped) != 0 {
					continue
				}
				if retEscapes(info, ret, v) {
					continue
				}
				pos := token.NoPos
				if ret != nil {
					pos = ret.Pos()
				} else if fd != nil {
					pos = fd.Pos()
				} else {
					pos = body.Pos()
				}
				report(pos, "pooled arena value %q may leak on this return path in %s: Release is unreachable", v.Name(), fname)
			}
		}
		for _, succ := range b.Succs {
			changed := false
			if in[succ.Index] == nil {
				in[succ.Index] = st.clone()
				changed = true
			} else {
				for v, vs := range st {
					if in[succ.Index][v]|vs != in[succ.Index][v] {
						in[succ.Index][v] |= vs
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

// transfer applies one statement's effects to the state map.
func transfer(pass *analysis.Pass, st stateMap, s ast.Stmt, report func(token.Pos, string, ...any)) {
	info := pass.TypesInfo

	// Defer statements: a deferred x.Release() marks DeferRel; a deferred
	// closure that releases x (or captures x at all) marks it too —
	// conservative, since deferred cleanup is the idiom being encouraged.
	if ds, ok := s.(*ast.DeferStmt); ok {
		if v := releaseRecv(info, ds.Call); v != nil {
			if cur, tracked := st[v]; tracked {
				if cur&deferRel != 0 {
					report(ds.Pos(), "pooled arena value %q released twice by deferred Release calls", v.Name())
				}
				st[v] |= deferRel
			}
		}
		if fl, ok := ds.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(fl.Body, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					if v := releaseRecv(info, c); v != nil {
						if _, tracked := st[v]; tracked {
							st[v] |= deferRel
						}
					}
				}
				return true
			})
		}
		// Other deferred calls referencing tracked vars borrow them.
		markArgEscapes(info, st, ds.Call)
		return
	}

	// Assignments: acquisitions bind/overwrite; reassigning an Owned var
	// without releasing first is a leak; aliasing escapes ownership.
	if as, ok := s.(*ast.AssignStmt); ok {
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			v := lintutil.LocalVar(info, id)
			if v == nil {
				continue
			}
			var rhs ast.Expr
			if len(as.Rhs) == len(as.Lhs) {
				rhs = as.Rhs[i]
			} else if len(as.Rhs) == 1 {
				rhs = as.Rhs[0]
			}
			if rhs != nil && acquisition(info, rhs) {
				if cur, tracked := st[v]; tracked && cur&owned != 0 && cur&(released|escaped|deferRel) == 0 {
					report(as.Pos(), "pooled arena value %q reassigned while still owned; the previous pages leak (Release first)", v.Name())
				}
				st[v] = owned
				continue
			}
			if rhs != nil {
				// Aliasing a tracked var: `y := x` — x's ownership moves.
				if rid, ok := ast.Unparen(rhs).(*ast.Ident); ok {
					if rv := lintutil.LocalVar(info, rid); rv != nil {
						if _, tracked := st[rv]; tracked {
							st[rv] |= escaped
						}
					}
				}
			}
			// Plain overwrite of a tracked var with a non-acquisition: if
			// it may still be owned (and not escaped), that's a leak too —
			// but the engine's swap idiom (`out = sorted`) releases first,
			// so only flag when provably unreleased. Keep may-analysis
			// quiet here; the return-path check catches real leaks.
			if _, tracked := st[v]; tracked && rhs != nil && !acquisition(info, rhs) {
				st[v] &^= owned | released
			}
		}
	}

	// Walk the statement for releases, uses, and escapes.
	ast.Inspect(s, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// Closure capture = borrow/transfer: anything it references is
			// no longer solely ours to balance.
			ast.Inspect(x.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if v := lintutil.LocalVar(info, id); v != nil {
						if _, tracked := st[v]; tracked {
							st[v] |= escaped
						}
					}
				}
				return true
			})
			return false
		case *ast.DeferStmt:
			return false // handled above when it is the statement itself
		case *ast.CallExpr:
			if v := releaseRecv(info, x); v != nil {
				if cur, tracked := st[v]; tracked {
					if cur == released {
						report(x.Pos(), "pooled arena value %q released twice on this path", v.Name())
					}
					st[v] = released
					return false
				}
			}
			markArgEscapes(info, st, x)
			// Uses via method calls on a released value.
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				if id := lintutil.RootIdent(sel.X); id != nil {
					if v := lintutil.LocalVar(info, id); v != nil {
						if cur, tracked := st[v]; tracked && cur == released {
							report(x.Pos(), "pooled arena value %q used after Release", v.Name())
						}
					}
				}
			}
		case *ast.ReturnStmt:
			for _, e := range x.Results {
				if id, ok := ast.Unparen(e).(*ast.Ident); ok {
					if v := lintutil.LocalVar(info, id); v != nil {
						if cur, tracked := st[v]; tracked && cur == released {
							report(x.Pos(), "pooled arena value %q returned after Release", v.Name())
						}
					}
				}
			}
		case *ast.CompositeLit, *ast.IndexExpr:
			// Storing a tracked var into a literal or container escapes it.
			ast.Inspect(n, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if v := lintutil.LocalVar(info, id); v != nil {
						if _, tracked := st[v]; tracked {
							st[v] |= escaped
						}
					}
				}
				return true
			})
			return false
		}
		return true
	})
}

// markArgEscapes transfers ownership of tracked vars passed as call
// arguments (the callee or the engine's staging machinery now owns the
// pages or is borrowing them under the caller's lifetime).
func markArgEscapes(info *types.Info, st stateMap, call *ast.CallExpr) {
	for _, arg := range call.Args {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok {
			if ue, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && ue.Op == token.AND {
				id, _ = ast.Unparen(ue.X).(*ast.Ident)
			}
		}
		if id == nil {
			continue
		}
		if v := lintutil.LocalVar(info, id); v != nil {
			if cur, tracked := st[v]; tracked {
				if cur == released {
					// passing a released value onward is a use-after-release;
					// reported at the call by the caller walk above.
					continue
				}
				st[v] |= escaped
			}
		}
	}
}

// retEscapes reports whether the return transfers v to the caller.
func retEscapes(info *types.Info, ret *ast.ReturnStmt, v *types.Var) bool {
	if ret == nil {
		return false
	}
	esc := false
	for _, e := range ret.Results {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if lintutil.LocalVar(info, id) == v {
					esc = true
				}
			}
			return !esc
		})
	}
	return esc
}
