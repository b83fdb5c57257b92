// The fused fast path: for a single-table SELECT — point or range
// lookup, residual filters, projection, optional LIMIT — the generator
// emits one pipeline that goes index-probe → filter → project directly
// into the result table. This is the holistic fusion of the paper's
// Listing 1 extended across the whole plan: no staged intermediate, no
// per-execution closure compilation, no separate materialisation pass.
// The planner's descriptors are unchanged — the fast path is an
// execution strategy the generator selects when the plan's shape allows
// it, never a semantic fork, so every engine keeps byte-identical
// results.

package codegen

import (
	"bytes"
	"time"

	"hique/internal/btree"
	"hique/internal/core"
	"hique/internal/morsel"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/types"
)

// fusedPred is one compiled filter: offsets and operator baked at
// generation time, the comparison value either baked (slot < 0) or read
// from the bind vector at execution time.
type fusedPred struct {
	off  int
	op   sql.CmpOp
	kind types.Kind
	slot int
	i    int64
	f    float64
	s    []byte // baked string value, zero-padded to the column width
	// sOver marks a baked value wider than the column: s then holds the
	// width-length prefix and an equal prefix compares as field < value.
	sOver bool
}

// fusedQuery is the compiled single-table pipeline.
type fusedQuery struct {
	p     *plan.Plan
	base  int
	out   *types.Schema
	width int // input tuple width
	preds []fusedPred
	// project writes one output tuple from an input tuple; compiled once
	// at generation time (it does not depend on the bind vector).
	project func(src, dst []byte)
	// idx, when non-nil, replaces the scan with fractal B+-tree lookups;
	// the matching filter stays in preds, so a dropped index degrades to
	// the scan without changing results.
	idx     *plan.IndexScanSpec
	idxSlot int // bind slot of the probe key, -1 when baked
	limit   int
	// traced is baked at generation time: EXPLAIN ANALYZE compiles its
	// own pipeline against a plan carrying a Trace, so the serving path's
	// cached pipelines pay nothing — not even a pointer load — per run.
	traced bool
	// par is the worker target for the scan loop, resolved at generation
	// time from the plan's Parallelism and the catalogued table size
	// (parallelWorkers); 1 runs the loop on the caller alone. Index probes
	// stay serial — par applies to the scan, including the dropped-index
	// fallback.
	par int
}

// newFused compiles the fused pipeline for a plan, or returns nil when
// the plan's shape needs the general operator walk: joins, aggregation,
// ordering, staging actions, or a filter the pipeline cannot evaluate
// allocation-free (a parameterized string comparison needs per-execution
// padding, so it falls back).
func newFused(p *plan.Plan) *fusedQuery {
	if len(p.Joins) != 0 || p.Agg != nil || p.Sort != nil || p.Final == nil {
		return nil
	}
	st := p.Final
	if st.Action != plan.StageNone || st.Input.Base < 0 || st.Input.Base >= len(p.Tables) {
		return nil
	}
	in := p.Tables[st.Input.Base].Entry.Table.Schema()
	for i := range st.Cols {
		c := &st.Cols[i]
		if c.Source >= 0 && c.Compute == nil {
			continue
		}
		switch c.Compute.Kind() {
		case types.Int, types.Float, types.Date:
		default:
			return nil
		}
	}

	f := &fusedQuery{
		p:       p,
		base:    st.Input.Base,
		out:     st.Schema,
		width:   in.TupleSize(),
		idxSlot: -1,
		limit:   p.Limit,
		traced:  p.Trace != nil,
		par:     parallelWorkers(p, p.Tables[st.Input.Base].Entry.Stats.Rows),
	}
	preds, ok := compileFusedPreds(in, st.Filters)
	if !ok {
		return nil
	}
	f.preds = preds
	if st.IndexScan != nil {
		f.idx = st.IndexScan
		if slot, ok := st.IndexScan.Slot(); ok {
			f.idxSlot = slot
		}
	}
	f.project = core.MakeProjector(in, st.Cols, st.Schema)
	return f
}

// run executes the pipeline against a bind vector. The result table
// draws its pages from the storage arena; the caller owns it and
// releases it after draining (hique's materialisation path does).
func (f *fusedQuery) run(params []types.Datum) (*storage.Table, error) {
	if err := f.p.CheckArgs(params); err != nil {
		return nil, err
	}
	out := storage.NewPooledTable("result", f.out)
	if f.limit == 0 {
		return out, nil
	}
	// Contained panics in the scan/probe below unwind past the caller's
	// Release (it never receives out); release here so the arena balance
	// survives the error path.
	done := false
	defer func() {
		if !done {
			out.Release()
		}
	}()
	var t0 time.Time
	if f.traced {
		t0 = time.Now()
	}
	t := f.p.Tables[f.base].Entry.Table
	probed := false
	if f.idx != nil {
		entry := f.p.Tables[f.base].Entry
		if tree := entry.Index(f.idx.Column); tree != nil {
			f.probe(tree, t, params, out)
			probed = true
		}
		// Index dropped since planning: the equality filter is still in
		// preds, so the scan below stays correct.
	}
	if !probed {
		if f.par > 1 {
			f.scanPar(t, params, out)
		} else {
			f.scanPages(t, 0, t.NumPages(), params, &rowDst{out: out})
		}
	}
	if f.traced {
		f.p.Trace.Observe(plan.TraceStageProject,
			int64(t.NumRows()), int64(out.NumRows()), time.Since(t0))
	}
	done = true
	return out, nil
}

// probe fetches the matching tuples through the index, re-applies the
// residual predicates, and projects straight into the result.
func (f *fusedQuery) probe(tree *btree.Tree, t *storage.Table, params []types.Datum, out *storage.Table) {
	key := f.idx.Value.I
	if f.idxSlot >= 0 {
		key = params[f.idxSlot].I
	}
	tree.Range(key, key, func(_ int64, rid btree.RID) bool {
		if int(rid.Page) >= t.NumPages() {
			return true
		}
		page := t.Page(int(rid.Page))
		if int(rid.Slot) >= page.NumTuples() {
			return true
		}
		tup := page.Tuple(int(rid.Slot))
		if !f.match(tup, params) {
			return true
		}
		f.project(tup, out.AppendSlot())
		return f.limit < 0 || out.NumRows() < f.limit
	})
}

// scanPages is the fused full-scan loop over pages [lo, hi). The
// caller-only run covers the whole table with dst on the result; a
// morsel covers its page range with dst on the worker's arena. It stops
// early once dst holds limit rows.
func (f *fusedQuery) scanPages(t *storage.Table, lo, hi int, params []types.Datum, dst *rowDst) {
	for pi := lo; pi < hi; pi++ {
		pg := t.Page(pi)
		if !f.scanPage(pg.Data(), pg.NumTuples(), params, dst) {
			return
		}
	}
}

// scanPage filters and projects one page's n tuples into dst: direct
// iteration with offset arithmetic, the Listing 1 pattern, specialised
// further for the dominant serving shape (a single integer predicate).
// It returns false once dst holds limit rows. The page body is its own
// function so that the tuple loops keep nothing of the page walk live
// across their calls (DESIGN.md §8.3 has the measurement).
func (f *fusedQuery) scanPage(data []byte, n int, params []types.Datum, dst *rowDst) bool {
	w := f.width
	if len(f.preds) == 1 && (f.preds[0].kind == types.Int || f.preds[0].kind == types.Date) {
		pr := &f.preds[0]
		v, op, off := pr.i, pr.op, pr.off
		if pr.slot >= 0 {
			v = params[pr.slot].I
		}
		for i, base := 0, 0; i < n; i, base = i+1, base+w {
			if !cmpOrdered(types.GetInt(data, base+off), v, op) {
				continue
			}
			f.project(data[base:base+w:base+w], dst.slot(f.out.TupleSize()))
			if f.limit >= 0 && dst.rows >= f.limit {
				return false
			}
		}
		return true
	}
	for i, base := 0, 0; i < n; i, base = i+1, base+w {
		tup := data[base : base+w : base+w]
		if !f.match(tup, params) {
			continue
		}
		f.project(tup, dst.slot(f.out.TupleSize()))
		if f.limit >= 0 && dst.rows >= f.limit {
			return false
		}
	}
	return true
}

// scanPar splits the scan into page-range morsels executed by up to
// f.par workers: every worker runs scanPages into its private arena,
// records each morsel's byte range, and the caller stitches the ranges
// back in morsel order — byte-identical to the caller-only scan, LIMIT
// included (a morsel emits at most limit rows, and once the completed
// morsel prefix covers the limit the unclaimed tail is cancelled).
func (f *fusedQuery) scanPar(t *storage.Table, params []types.Datum, out *storage.Table) {
	per, n := pageMorsels(t)
	pages := t.NumPages()
	if n < 2 {
		// Table shrank below one morsel since planning: the caller-only
		// run is strictly cheaper.
		f.scanPages(t, 0, pages, params, &rowDst{out: out})
		return
	}
	ph := parPhasePool.Get().(*parPhase)
	ph.reset(n, f.par, f.limit)
	ph.run(f.p.Pool, f.par, func(wi int) {
		dst := &ph.workers[wi].tail.rowDst
		for {
			m, ok := ph.queue.Next()
			if !ok {
				return
			}
			mo := parMorsel{worker: int32(wi), start: len(dst.arena)}
			dst.rows = 0
			f.scanPages(t, m*per, min((m+1)*per, pages), params, dst)
			mo.rows, mo.end = dst.rows, len(dst.arena)
			ph.complete(m, mo)
		}
	})
	ph.stitchRows(out, f.out.TupleSize(), f.limit)
	if f.traced {
		ph.finish(f.p.Trace, plan.TraceStageProject)
	} else {
		ph.finish(nil, "")
	}
	morsel.CountQuery()
	parPhasePool.Put(ph)
}

// compileFusedPreds lowers a stage's filters to the baked-offset form the
// fused pipelines evaluate. ok is false when a filter needs per-execution
// allocation — a parameterized string comparison requires padding the
// bound value to the column width — in which case the caller declines
// fusion and the general path handles the plan.
func compileFusedPreds(in *types.Schema, filters []plan.Filter) ([]fusedPred, bool) {
	var preds []fusedPred
	for _, flt := range filters {
		c := in.Column(flt.Col)
		pr := fusedPred{off: in.Offset(flt.Col), op: flt.Op, kind: c.Kind, slot: -1}
		if slot, ok := flt.Slot(); ok {
			if c.Kind == types.String {
				return nil, false
			}
			pr.slot = slot
		} else {
			switch c.Kind {
			case types.Int, types.Date:
				pr.i = flt.Val.I
			case types.Float:
				pr.f = flt.Val.F
			case types.String:
				if len(flt.Val.S) > c.Size {
					// Wider than the column: never equal, and the stored
					// field (a proper prefix at best) sorts strictly below
					// the value. sOver folds that into the comparison.
					pr.s = []byte(flt.Val.S[:c.Size])
					pr.sOver = true
				} else {
					pr.s = make([]byte, c.Size)
					copy(pr.s, flt.Val.S)
				}
			default:
				return nil, false
			}
		}
		preds = append(preds, pr)
	}
	return preds, true
}

// matchPreds evaluates a compiled predicate conjunction against one
// tuple, reading parameterized comparison values from the bind vector.
func matchPreds(preds []fusedPred, tup []byte, params []types.Datum) bool {
	for i := range preds {
		pr := &preds[i]
		switch pr.kind {
		case types.Int, types.Date:
			v := pr.i
			if pr.slot >= 0 {
				v = params[pr.slot].I
			}
			if !cmpOrdered(types.GetInt(tup, pr.off), v, pr.op) {
				return false
			}
		case types.Float:
			v := pr.f
			if pr.slot >= 0 {
				v = params[pr.slot].F
			}
			if !cmpOrdered(types.GetFloat(tup, pr.off), v, pr.op) {
				return false
			}
		case types.String:
			c := bytes.Compare(tup[pr.off:pr.off+len(pr.s)], pr.s)
			if c == 0 && pr.sOver {
				c = -1
			}
			if !pr.op.Holds(c) {
				return false
			}
		}
	}
	return true
}

// match evaluates the predicate conjunction against one tuple.
func (f *fusedQuery) match(tup []byte, params []types.Datum) bool {
	return matchPreds(f.preds, tup, params)
}

func cmpOrdered[T int64 | float64](x, v T, op sql.CmpOp) bool {
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
