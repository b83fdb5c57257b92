// Package core implements the paper's primary contribution: the holistic
// query-evaluation algorithms of §V-B. Every algorithm here is the runtime
// body of a code-generation template — data staging (filter + project +
// sort/partition in one interleaved pass), the common nested-loops join
// template specialised into merge, fine-partition, and hybrid hash-sort-
// merge joins (including multi-way join teams), and the three aggregation
// strategies (sort, hybrid hash-sort, and map aggregation over value
// directories).
//
// The functions in this package are "instantiated templates": they are
// built by composing type- and offset-specialised closures at plan time, so
// the per-tuple inner loops contain no interface dispatch, no boxing, and
// no function calls other than the fused closures themselves. This is the
// closure-compilation substitution for the paper's C source generation
// documented in DESIGN.md.
package core

import (
	"bytes"
	"fmt"

	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/types"
)

// Compare is a specialised tuple comparator over raw tuple bytes.
type Compare func(a, b []byte) int

// MakeKeyCompare builds a comparator over the given columns of a schema.
// Single-column integer keys — the common join case — get a dedicated fast
// path with the offset baked in.
func MakeKeyCompare(schema *types.Schema, keys []int) Compare {
	if len(keys) == 1 {
		c := schema.Column(keys[0])
		off := schema.Offset(keys[0])
		switch c.Kind {
		case types.Int, types.Date:
			return func(a, b []byte) int {
				x, y := types.GetInt(a, off), types.GetInt(b, off)
				switch {
				case x < y:
					return -1
				case x > y:
					return 1
				}
				return 0
			}
		case types.Float:
			return func(a, b []byte) int {
				x, y := types.GetFloat(a, off), types.GetFloat(b, off)
				switch {
				case x < y:
					return -1
				case x > y:
					return 1
				}
				return 0
			}
		case types.String:
			end := off + c.Size
			return func(a, b []byte) int {
				return bytes.Compare(a[off:end], b[off:end])
			}
		}
	}
	cmps := make([]Compare, len(keys))
	for i, k := range keys {
		cmps[i] = MakeKeyCompare(schema, []int{k})
	}
	return func(a, b []byte) int {
		for _, c := range cmps {
			if r := c(a, b); r != 0 {
				return r
			}
		}
		return 0
	}
}

// MakeSortCompare builds a comparator honouring per-key descending flags
// (used by the final ORDER BY operator).
func MakeSortCompare(schema *types.Schema, keys []plan.SortKey) Compare {
	cmps := make([]Compare, len(keys))
	for i, k := range keys {
		base := MakeKeyCompare(schema, []int{k.Col})
		if k.Desc {
			inner := base
			cmps[i] = func(a, b []byte) int { return -inner(a, b) }
		} else {
			cmps[i] = base
		}
	}
	if len(cmps) == 1 {
		return cmps[0]
	}
	return func(a, b []byte) int {
		for _, c := range cmps {
			if r := c(a, b); r != 0 {
				return r
			}
		}
		return 0
	}
}

// CrossCompare compares tuples from two different schemas on their key
// columns (merge-join needs this: the two staged inputs have distinct
// layouts).
func CrossCompare(sa *types.Schema, ka int, sb *types.Schema, kb int) func(a, b []byte) int {
	ca, cb := sa.Column(ka), sb.Column(kb)
	offA, offB := sa.Offset(ka), sb.Offset(kb)
	if ca.Kind != cb.Kind {
		panic(fmt.Sprintf("core.CrossCompare: kind mismatch %v vs %v", ca.Kind, cb.Kind))
	}
	switch ca.Kind {
	case types.Int, types.Date:
		return func(a, b []byte) int {
			x, y := types.GetInt(a, offA), types.GetInt(b, offB)
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			}
			return 0
		}
	case types.Float:
		return func(a, b []byte) int {
			x, y := types.GetFloat(a, offA), types.GetFloat(b, offB)
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			}
			return 0
		}
	case types.String:
		size := ca.Size
		if cb.Size < size {
			size = cb.Size
		}
		endA, endB := offA+size, offB+size
		return func(a, b []byte) int {
			return bytes.Compare(a[offA:endA], b[offB:endB])
		}
	}
	panic("core.CrossCompare: bad kind")
}

// Pred is one compiled filter (the Listing 1 pattern): the column's offset,
// kind and width and the operator baked at generation time, the comparison
// value either baked or — Slot >= 0 — read from the bind vector at
// execution time. The general walk, the fused pipelines and the DML write
// path all filter through it.
type Pred struct {
	Off  int
	Op   sql.CmpOp
	Kind types.Kind
	Slot int
	I    int64
	F    float64
	S    string // baked CHAR value, unpadded
	Size int    // CHAR column width
	// Bound is the column's slot in a page's bounds
	// (storage.BoundSlot), -1 when the column keeps none.
	Bound int
}

// CompilePreds lowers a stage's filters over the input schema; a
// parameterized filter keeps its bind slot.
func CompilePreds(in *types.Schema, filters []plan.Filter) []Pred {
	preds := make([]Pred, len(filters))
	for k, flt := range filters {
		c := in.Column(flt.Col)
		slot, _ := flt.Slot()
		preds[k] = Pred{Off: in.Offset(flt.Col), Op: flt.Op, Kind: c.Kind, Slot: slot,
			I: flt.Val.I, F: flt.Val.F, S: flt.Val.S, Size: c.Size, Bound: storage.BoundSlot(in, flt.Col)}
	}
	return preds
}

// MatchPreds evaluates a compiled predicate conjunction against one tuple,
// reading parameterized comparison values from the bind vector.
func MatchPreds(preds []Pred, tup []byte, params []types.Datum) bool {
	for i := range preds {
		pr := &preds[i]
		switch pr.Kind {
		case types.Int, types.Date:
			v := pr.I
			if pr.Slot >= 0 {
				v = params[pr.Slot].I
			}
			if !CmpOrdered(types.GetInt(tup, pr.Off), v, pr.Op) {
				return false
			}
		case types.Float:
			v := pr.F
			if pr.Slot >= 0 {
				v = params[pr.Slot].F
			}
			if !CmpOrdered(types.GetFloat(tup, pr.Off), v, pr.Op) {
				return false
			}
		case types.String:
			v := pr.S
			if pr.Slot >= 0 {
				v = params[pr.Slot].S
			}
			if !pr.Op.Holds(cmpChar(tup[pr.Off:pr.Off+pr.Size], v)) {
				return false
			}
		}
	}
	return true
}

// cmpChar three-way compares a stored CHAR field with a value as if the
// value were zero-padded to the field's width, without padding it: a
// bound value is compared in place, so a string parameter costs no
// allocation. A value wider than the field is never equal, and the field
// — at best a proper prefix of it — sorts strictly below.
func cmpChar(field []byte, v string) int {
	n := min(len(field), len(v))
	for i := 0; i < n; i++ {
		if field[i] != v[i] {
			if field[i] < v[i] {
				return -1
			}
			return 1
		}
	}
	if len(v) > len(field) {
		return -1
	}
	for _, b := range field[n:] {
		if b != 0 {
			return 1
		}
	}
	return 0
}

// CmpOrdered applies a comparison operator to two ordered values.
func CmpOrdered[T int64 | float64](x, v T, op sql.CmpOp) bool {
	switch op {
	case sql.CmpEq:
		return x == v
	case sql.CmpNe:
		return x != v
	case sql.CmpLt:
		return x < v
	case sql.CmpLe:
		return x <= v
	case sql.CmpGt:
		return x > v
	default:
		return x >= v
	}
}

// MakeProjector compiles a staged-column list into a closure that fills an
// output tuple from an input tuple: direct copies become offset-to-offset
// copies, computed columns become fused arithmetic.
func MakeProjector(in *types.Schema, cols []plan.OutputColumn, out *types.Schema) func(src, dst []byte) {
	type copySpec struct{ srcOff, dstOff, size int }
	var copies []copySpec
	type computeSpec struct {
		eval   func(src []byte) // writes into dst via captured closure
		dstOff int
	}
	steps := make([]func(src, dst []byte), 0, len(cols))

	for i, c := range cols {
		dstOff := out.Offset(i)
		if c.Source >= 0 && c.Compute == nil {
			copies = append(copies, copySpec{in.Offset(c.Source), dstOff, c.Size})
			continue
		}
		expr := c.Compute
		switch expr.Kind() {
		case types.Int, types.Date:
			eval := CompileIntExpr(expr, in)
			off := dstOff
			steps = append(steps, func(src, dst []byte) {
				types.PutInt(dst, off, eval(src))
			})
		case types.Float:
			eval := CompileFloatExpr(expr, in)
			off := dstOff
			steps = append(steps, func(src, dst []byte) {
				types.PutFloat(dst, off, eval(src))
			})
		default:
			panic(fmt.Sprintf("core.MakeProjector: unsupported computed kind %v", expr.Kind()))
		}
	}

	// Coalesce adjacent copies into single memmoves (the generated code
	// copies whole field runs where offsets line up).
	merged := make([]copySpec, 0, len(copies))
	for _, c := range copies {
		if n := len(merged); n > 0 {
			last := &merged[n-1]
			if last.srcOff+last.size == c.srcOff && last.dstOff+last.size == c.dstOff {
				last.size += c.size
				continue
			}
		}
		merged = append(merged, c)
	}

	return func(src, dst []byte) {
		for _, c := range merged {
			copy(dst[c.dstOff:c.dstOff+c.size], src[c.srcOff:c.srcOff+c.size])
		}
		for _, s := range steps {
			s(src, dst)
		}
	}
}

// CompileFloatExpr fuses a float-valued expression tree into a single
// closure over raw tuple bytes with offsets and constants baked in — the
// closure-compilation analogue of the arithmetic the generated C inlines.
func CompileFloatExpr(e plan.Expr, schema *types.Schema) func(t []byte) float64 {
	switch v := e.(type) {
	case *plan.ColExpr:
		off := schema.Offset(v.Col)
		if v.K == types.Float {
			return func(t []byte) float64 { return types.GetFloat(t, off) }
		}
		return func(t []byte) float64 { return float64(types.GetInt(t, off)) }
	case *plan.ConstExpr:
		c := v.D.F
		if v.D.Kind != types.Float {
			c = float64(v.D.I)
		}
		return func([]byte) float64 { return c }
	case *plan.ArithExpr:
		l := CompileFloatExpr(v.L, schema)
		r := CompileFloatExpr(v.R, schema)
		switch v.Op {
		case sql.OpAdd:
			return func(t []byte) float64 { return l(t) + r(t) }
		case sql.OpSub:
			return func(t []byte) float64 { return l(t) - r(t) }
		case sql.OpMul:
			return func(t []byte) float64 { return l(t) * r(t) }
		case sql.OpDiv:
			return func(t []byte) float64 { return l(t) / r(t) }
		}
	}
	panic(fmt.Sprintf("core.CompileFloatExpr: bad node %T", e))
}

// CompileIntExpr is the integer analogue of CompileFloatExpr.
func CompileIntExpr(e plan.Expr, schema *types.Schema) func(t []byte) int64 {
	switch v := e.(type) {
	case *plan.ColExpr:
		off := schema.Offset(v.Col)
		return func(t []byte) int64 { return types.GetInt(t, off) }
	case *plan.ConstExpr:
		c := v.D.I
		return func([]byte) int64 { return c }
	case *plan.ArithExpr:
		l := CompileIntExpr(v.L, schema)
		r := CompileIntExpr(v.R, schema)
		switch v.Op {
		case sql.OpAdd:
			return func(t []byte) int64 { return l(t) + r(t) }
		case sql.OpSub:
			return func(t []byte) int64 { return l(t) - r(t) }
		case sql.OpMul:
			return func(t []byte) int64 { return l(t) * r(t) }
		case sql.OpDiv:
			return func(t []byte) int64 { return l(t) / r(t) }
		}
	}
	panic(fmt.Sprintf("core.CompileIntExpr: bad node %T", e))
}
