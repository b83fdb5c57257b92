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
// compiled once per plan into type- and offset-specialised descriptors
// (predicates, projections, expression programs, aggregate updates), so
// the inner loops contain no interface dispatch and no boxing. A key —
// a sort's, a join's, a group's, ORDER BY's — compiles into one
// order-preserving encoding of fixed-width words (Key), and every ordered
// comparison compares those words: the stable radix sort, the merge
// walk, the stream-group boundary and the join-key filter alike. The
// value directories of map aggregation and fine partitioning (Dir) are
// built from their values' words and probe a batch's words, and the
// coarse route hashes them, so no lookup or route branches on a
// column's kind. The kernels run page at a time: one loop per predicate,
// expression node, grouping attribute and aggregate over a page's
// selection vector, so the dispatch between them is paid per page, not
// per tuple. The paper's C is tuple-at-a-time because gcc inlines its
// templates; Go cannot inline a closure composed at run time (vector.go,
// DESIGN.md §1).
package core

import (
	"math"

	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/types"
)

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

// SelectPage filters the n tuples of width w packed in data through a
// predicate conjunction, reading parameterized values from the bind
// vector, and returns the indexes of the tuples that pass, in page order,
// in sel's storage (grown when short). The first predicate runs over the
// whole page and each later one over the survivors so far, in one loop
// per predicate with its kind and operator lowered out of it: a numeric
// predicate becomes one unsigned range test (numRange), a CHAR one a bit
// of a three-way-compare mask, so no tuple branches on its outcome. Every
// page loop filters through it; a fetched tuple is a page of one
// (MatchPreds).
func SelectPage(preds []Pred, data []byte, n, w int, params []types.Datum, sel []int32) []int32 {
	if cap(sel) < n {
		sel = make([]int32, n)
	}
	sel = sel[:n]
	if len(preds) == 0 {
		for i := range sel {
			sel[i] = int32(i)
		}
		return sel
	}
	sel = preds[0].keep(data, w, params, sel, true)
	for i := 1; i < len(preds) && len(sel) > 0; i++ {
		sel = preds[i].keep(data, w, params, sel, false)
	}
	return sel
}

// MatchPreds reports whether one tuple passes every predicate. It stays
// for the paths that fetch tuples one at a time — index probes, the
// ordered traversal, the DELETE compaction callback — and filters through
// SelectPage, so a tuple passes exactly when a page scan would keep it.
func MatchPreds(preds []Pred, tup []byte, params []types.Datum) bool {
	var one [1]int32
	return len(SelectPage(preds, tup, 1, len(tup), params, one[:0])) == 1
}

// keep compacts sel to the tuples that pass the predicate. all says that
// sel stands for the whole page — its length the tuple count, its
// contents not yet written — which the first predicate walks by offset.
func (pr *Pred) keep(data []byte, w int, params []types.Datum, sel []int32, all bool) []int32 {
	k := 0
	off := pr.Off
	if pr.Kind == types.String {
		v := pr.S
		if pr.Slot >= 0 {
			v = params[pr.Slot].S
		}
		// Bit c+1 of mask says whether the operator holds when the field
		// compares c (-1, 0, +1) with the value.
		var mask uint
		for c := -1; c <= 1; c++ {
			if pr.Op.Holds(c) {
				mask |= 1 << (c + 1)
			}
		}
		end := off + pr.Size
		if all {
			for i := range sel {
				sel[i] = int32(i)
			}
		}
		for _, i := range sel {
			b := int(i) * w
			sel[k] = i
			k += int(mask >> (cmpChar(data[b+off:b+end], v) + 1) & 1)
		}
		return sel[:k]
	}
	lo, span, ok := pr.numRange(params)
	if !ok {
		return sel[:0]
	}
	// A float field compares through its order key (floatKey): fm
	// applies the key's flip to floats and leaves integers as they are.
	var fm int64
	if pr.Kind == types.Float {
		fm = -1
	}
	if all {
		for i, o := 0, off; i < len(sel); i, o = i+1, o+w {
			x := types.GetInt(data, o)
			x ^= int64(uint64(x>>63)>>1) & fm
			sel[k] = int32(i)
			k += b2i(uint64(x-lo) <= span)
		}
		return sel[:k]
	}
	for _, i := range sel {
		x := types.GetInt(data, int(i)*w+off)
		x ^= int64(uint64(x>>63)>>1) & fm
		sel[k] = i
		k += b2i(uint64(x-lo) <= span)
	}
	return sel[:k]
}

// numRange lowers a numeric predicate to the keys that pass it: those at
// most span above lo, mod 2^64 — a range that may wrap, so x <> v is the
// range from v+1 round to v-1. ok is false when no key passes. A float
// compares through its order key: the range of keys equal to the value
// spans both zeros, and a NaN's key lies outside every range but <>'s
// (a NaN value passes <> alone).
func (pr *Pred) numRange(params []types.Datum) (lo int64, span uint64, ok bool) {
	var eq0, eq1, least, most int64 // the keys equal to the value; the keys that order
	if pr.Kind == types.Float {
		v := pr.F
		if pr.Slot >= 0 {
			v = params[pr.Slot].F
		}
		if v != v {
			return 0, math.MaxUint64, pr.Op == sql.CmpNe
		}
		eq0, eq1 = floatKey(v), floatKey(v)
		if v == 0 {
			eq0, eq1 = floatKey(math.Copysign(0, -1)), floatKey(0)
		}
		least, most = floatKey(math.Inf(-1)), floatKey(math.Inf(1))
	} else {
		v := pr.I
		if pr.Slot >= 0 {
			v = params[pr.Slot].I
		}
		eq0, eq1, least, most = v, v, math.MinInt64, math.MaxInt64
	}
	switch pr.Op {
	case sql.CmpEq:
		return eq0, uint64(eq1 - eq0), true
	case sql.CmpNe:
		return eq1 + 1, math.MaxUint64 - uint64(eq1-eq0) - 1, true
	case sql.CmpLt:
		return least, uint64(eq0 - 1 - least), eq0 != least
	case sql.CmpLe:
		return least, uint64(eq1 - least), true
	case sql.CmpGt:
		return eq1 + 1, uint64(most - eq1 - 1), eq1 != most
	default:
		return eq0, uint64(most - eq0), true
	}
}

// floatKey maps a float's bits to an integer that orders as the float
// does: a negative float's magnitude bits flip, so -0 sits just below +0
// and the NaNs lie beyond the infinities.
func floatKey(f float64) int64 {
	x := int64(math.Float64bits(f))
	return x ^ int64(uint64(x>>63)>>1)
}

// b2i is 1 for true and 0 for false, compiled without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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
