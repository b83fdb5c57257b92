// Package dsm implements the column-store comparator engine used as the
// MonetDB stand-in in the TPC-H comparison (paper §III, §VI-C): storage is
// vertically decomposed (Decomposed Storage Model), execution is
// operator-at-a-time over full columns, and every intermediate result is
// fully materialised — the design whose strengths (touching only needed
// fields) and weaknesses (no cross-operator cache locality) the paper
// contrasts with holistic evaluation.
package dsm

import (
	"fmt"
	"math"
	"sync"

	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/types"
)

// column is a fully materialised attribute vector.
type column struct {
	kind types.Kind
	size int // CHAR width for strings
	ints []int64
	fls  []float64
	strs []string
}

// keys returns a numeric column's values as join keys: integers as they
// are, floats by their bits with -0 folded into +0, so that equal keys
// are the == ones.
func (c *column) keys() []int64 {
	if c.kind != types.Float {
		return c.ints
	}
	out := make([]int64, len(c.fls))
	for i, f := range c.fls {
		if out[i] = int64(math.Float64bits(f)); f == 0 {
			out[i] = 0
		}
	}
	return out
}

func (c *column) length() int {
	switch c.kind {
	case types.Float:
		return len(c.fls)
	case types.String:
		return len(c.strs)
	default:
		return len(c.ints)
	}
}

// colTable is a set of aligned columns (a BAT group, in MonetDB terms).
type colTable struct {
	names []string
	cols  []*column
	rows  int
}

// Engine is the DSM execution engine. Vertical decomposition of base
// tables happens once per table version and is cached, mirroring a column
// store whose base data already lives in DSM; a cached decomposition
// revalidates against the heap's mutation counter, so writes (inserts,
// deletes, in-place updates) invalidate it instead of serving stale
// columns.
type Engine struct {
	mu    sync.Mutex
	cache map[*storage.Table]*decomposed
}

// decomposed is one cache entry: the column vectors plus the heap version
// they were built at.
type decomposed struct {
	ct      *colTable
	version uint64
}

// NewEngine creates a DSM engine.
func NewEngine() *Engine {
	return &Engine{cache: make(map[*storage.Table]*decomposed)}
}

// Name identifies the engine in experiment output.
func (e *Engine) Name() string { return "DSM-columnstore" }

// decompose converts an NSM heap into column vectors (cached per heap
// version; the caller holds the table lock, so the version cannot move
// underneath the conversion).
func (e *Engine) decompose(t *storage.Table) *colTable {
	version := t.Version()
	e.mu.Lock()
	if d, ok := e.cache[t]; ok && d.version == version {
		e.mu.Unlock()
		return d.ct
	}
	e.mu.Unlock()

	s := t.Schema()
	ct := &colTable{rows: t.NumRows()}
	for i := 0; i < s.NumColumns(); i++ {
		c := s.Column(i)
		col := &column{kind: c.Kind, size: c.Size}
		switch c.Kind {
		case types.Float:
			col.fls = make([]float64, 0, t.NumRows())
		case types.String:
			col.strs = make([]string, 0, t.NumRows())
		default:
			col.ints = make([]int64, 0, t.NumRows())
		}
		ct.cols = append(ct.cols, col)
		ct.names = append(ct.names, c.Name)
	}
	t.Scan(func(tuple []byte) bool {
		for i := 0; i < s.NumColumns(); i++ {
			c := s.Column(i)
			off := s.Offset(i)
			switch c.Kind {
			case types.Float:
				ct.cols[i].fls = append(ct.cols[i].fls, types.GetFloat(tuple, off))
			case types.String:
				ct.cols[i].strs = append(ct.cols[i].strs, types.GetString(tuple, off, c.Size))
			default:
				ct.cols[i].ints = append(ct.cols[i].ints, types.GetInt(tuple, off))
			}
		}
		return true
	})
	e.mu.Lock()
	e.cache[t] = &decomposed{ct: ct, version: version}
	e.mu.Unlock()
	return ct
}

// --- column primitives (operator-at-a-time, fully materialising) -----------

// selectVector evaluates one predicate over a column and intersects it with
// the incoming candidate list (nil = all rows).
func selectVector(col *column, op sql.CmpOp, val types.Datum, in []int32) []int32 {
	test := func(i int32) bool {
		switch col.kind {
		case types.Float:
			return cmpResult(compareFloat(col.fls[i], val.F), op)
		case types.String:
			return cmpResult(compareString(col.strs[i], val.S), op)
		default:
			return cmpResult(compareInt(col.ints[i], val.I), op)
		}
	}
	var out []int32
	if in == nil {
		n := col.length()
		out = make([]int32, 0, n/2)
		for i := 0; i < n; i++ {
			if test(int32(i)) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	out = make([]int32, 0, len(in)/2)
	for _, i := range in {
		if test(i) {
			out = append(out, i)
		}
	}
	return out
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareString(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpResult(c int, op sql.CmpOp) bool { return op.Holds(c) }

// gather materialises col[sel] as a new column.
func gather(col *column, sel []int32) *column {
	out := &column{kind: col.kind, size: col.size}
	switch col.kind {
	case types.Float:
		out.fls = make([]float64, len(sel))
		for i, s := range sel {
			out.fls[i] = col.fls[s]
		}
	case types.String:
		out.strs = make([]string, len(sel))
		for i, s := range sel {
			out.strs[i] = col.strs[s]
		}
	default:
		out.ints = make([]int64, len(sel))
		for i, s := range sel {
			out.ints[i] = col.ints[s]
		}
	}
	return out
}

// computeColumn evaluates a bound scalar expression column-at-a-time over
// already-gathered input columns.
func computeColumn(e plan.Expr, inputs *colTable) *column {
	switch v := e.(type) {
	case *plan.ColExpr:
		return inputs.cols[v.Col]
	case *plan.ConstExpr:
		out := &column{kind: v.D.Kind, size: 8}
		n := inputs.rows
		switch v.D.Kind {
		case types.Float:
			out.fls = make([]float64, n)
			for i := range out.fls {
				out.fls[i] = v.D.F
			}
		default:
			out.ints = make([]int64, n)
			for i := range out.ints {
				out.ints[i] = v.D.I
			}
		}
		return out
	case *plan.ArithExpr:
		l := computeColumn(v.L, inputs)
		r := computeColumn(v.R, inputs)
		if v.Kind() == types.Float {
			lf := asFloats(l)
			rf := asFloats(r)
			out := &column{kind: types.Float, size: 8, fls: make([]float64, len(lf))}
			switch v.Op {
			case sql.OpAdd:
				for i := range lf {
					out.fls[i] = lf[i] + rf[i]
				}
			case sql.OpSub:
				for i := range lf {
					out.fls[i] = lf[i] - rf[i]
				}
			case sql.OpMul:
				for i := range lf {
					out.fls[i] = lf[i] * rf[i]
				}
			case sql.OpDiv:
				for i := range lf {
					out.fls[i] = lf[i] / rf[i]
				}
			}
			return out
		}
		out := &column{kind: types.Int, size: 8, ints: make([]int64, len(l.ints))}
		switch v.Op {
		case sql.OpAdd:
			for i := range l.ints {
				out.ints[i] = l.ints[i] + r.ints[i]
			}
		case sql.OpSub:
			for i := range l.ints {
				out.ints[i] = l.ints[i] - r.ints[i]
			}
		case sql.OpMul:
			for i := range l.ints {
				out.ints[i] = l.ints[i] * r.ints[i]
			}
		case sql.OpDiv:
			for i := range l.ints {
				out.ints[i] = l.ints[i] / r.ints[i]
			}
		}
		return out
	}
	panic(fmt.Sprintf("dsm: bad expression %T", e))
}

func asFloats(c *column) []float64 {
	if c.kind == types.Float {
		return c.fls
	}
	out := make([]float64, len(c.ints))
	for i, v := range c.ints {
		out[i] = float64(v)
	}
	return out
}
