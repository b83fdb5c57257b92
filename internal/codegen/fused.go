// The fused fast path: for a single-table SELECT — point or range
// lookup, residual filters, projection, optional LIMIT — the generator
// emits one pipeline that goes index-probe → filter → project directly
// into the result table; a single-table aggregation is the same scan
// feeding the aggregation tails of the fused join (fused_join.go) instead:
// the no-join instance of that pipeline. This is the holistic fusion of
// the paper's Listing 1 extended across the whole plan: no staged
// intermediate, no per-execution closure compilation, no separate
// materialisation pass.
// The planner's descriptors are unchanged — the fast path is an
// execution strategy the generator selects when the plan's shape allows
// it, never a semantic fork, so every engine keeps byte-identical
// results.

package codegen

import (
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
	s    string // baked CHAR value, unpadded
	size int    // CHAR column width
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

	// agg, when non-nil, replaces the projection into the result with an
	// aggregation tail: map and group-less aggregation fold each matching
	// tuple straight into accumulator arrays (aggPages); the collect modes
	// stage through in — the scan's filter with the aggregation input's
	// projection and coarse route, as a join side stages — and sort in
	// fusedAgg.finish. sortCmp is the ORDER BY over the groups.
	agg     *fusedAgg
	in      fusedSide
	sortCmp core.Compare
}

// newFused compiles the fused pipeline for a single-table plan, or
// returns nil when the plan's shape needs the general operator walk:
// joins, HAVING, ordering of a plain projection, staging actions, an
// index-probed aggregation, or a computed CHAR column.
func newFused(p *plan.Plan) *fusedQuery {
	st := p.Final
	if p.Agg != nil {
		st = &p.Agg.Input
	}
	if len(p.Joins) != 0 || len(p.Having) != 0 || st == nil ||
		st.Input.Base < 0 || st.Input.Base >= len(p.Tables) || !st.Projectable() {
		return nil
	}
	entry := p.Tables[st.Input.Base].Entry
	in := entry.Table.Schema()
	f := &fusedQuery{
		p:       p,
		base:    st.Input.Base,
		out:     p.ResultSchema(),
		width:   in.TupleSize(),
		preds:   compileFusedPreds(in, st.Filters),
		idxSlot: -1,
		limit:   p.Limit,
		traced:  p.Trace != nil,
		par:     parallelWorkers(p, entry.Stats.Rows),
	}
	if p.Agg != nil {
		fa := newFusedAgg(p.Agg, in, nil)
		if fa == nil || fa.stream || st.IndexScan != nil {
			return nil
		}
		f.agg = fa
		f.in = fusedSide{preds: f.preds, project: fa.project, width: fa.width,
			inWidth: f.width, route: fa.route, par: f.par}
		if p.Sort != nil {
			f.sortCmp = core.MakeSortCompare(f.out, p.Sort.Keys)
		}
		return f
	}
	if p.Sort != nil || st.Action != plan.StageNone {
		return nil
	}
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
	if f.agg != nil {
		f.runAgg(t, params, out)
		if f.traced {
			f.p.Trace.Observe(plan.TraceStageAgg, int64(t.NumRows()), int64(out.NumRows()), time.Since(t0))
		}
		out = core.FinishResult(f.p, f.sortCmp, out, true)
		done = true
		return out, nil
	}
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
	per, n := pageMorsels(t, morsel.Rows)
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
	ph.finish(f.p.Trace, plan.TraceStageProject)
	morsel.CountQuery()
	parPhasePool.Put(ph)
}

// runAgg drives the scan into the aggregation tail and emits the groups
// into out. Map and group-less aggregation fold the table chunk by chunk
// — page-range morsels, each into a private accumulator, merged in
// ascending chunk order — on every worker count, one included: the split
// is a pure function of the page count, so float sums fold in one order
// whatever the worker target, claim timing or admitted helpers. A chunk
// covers at least four tuples per accumulator slot so the merges stay a
// fraction of the scan. Collect modes stage as a join side does and
// stitch in morsel order.
func (f *fusedQuery) runAgg(t *storage.Table, params []types.Datum, out *storage.Table) {
	fa := f.agg
	sc := joinScratchPool.Get().(*joinScratch)
	ts, ph := &sc.tail, &sc.par
	fa.begin(sc)
	pages := t.NumPages()
	per, n := pageMorsels(t, max(morsel.Rows, 4*fa.prog.NGroups*fa.prog.NAggs))
	switch {
	case !fa.mapped:
		if f.par > 1 && f.in.scanPar(ph, &ts.aggIn, f.p.Pool, t, params) {
			ph.finish(f.p.Trace, plan.TraceStageAgg)
			morsel.CountQuery()
		} else {
			f.in.stagePages(&ts.aggIn, t, 0, pages, params)
		}
	case n < 2:
		f.aggPages(ts, t, 0, pages, params)
	default:
		ph.reset(n, f.par, -1)
		sc.resetChunkMaps(n)
		ph.run(f.p.Pool, f.par, func(wi int) {
			wk := &ph.workers[wi]
			wk.tail.aggBuf = grown(wk.tail.aggBuf, fa.width)
			for {
				m, ok := ph.queue.Next()
				if !ok {
					return
				}
				wk.tail.acc, wk.tail.pairs = sc.chunkMap(wk, m, fa.prog), 0
				f.aggPages(&wk.tail, t, m*per, min((m+1)*per, pages), params)
				ph.complete(m, parMorsel{worker: int32(wi), rows: wk.tail.pairs})
			}
		})
		sc.mergeChunkMaps()
		if f.par > 1 {
			ph.finish(f.p.Trace, plan.TraceStageAgg)
			morsel.CountQuery()
		}
	}
	limit := f.limit
	if f.sortCmp != nil {
		limit = -1 // ORDER BY needs every group; LIMIT truncates after the sort
	}
	fa.finish(sc, out, limit)
	sc.release()
}

// aggPages is the fused scan → aggregate loop over pages [lo, hi): filter,
// project the aggregate arguments, locate the group through the value
// directories (slot 0 for a group-less aggregate) and update ts.acc in
// place — Figure 4 with no staging; ts.pairs counts the tuples folded. The
// caller-only run covers the whole table with the scratch's state; a
// chunk covers its page range with a worker's.
func (f *fusedQuery) aggPages(ts *tailState, t *storage.Table, lo, hi int, params []types.Datum) {
	fa, w, buf := f.agg, f.width, ts.aggBuf
	for pi := lo; pi < hi; pi++ {
		pg := t.Page(pi)
		data := pg.Data()
		for k, base := pg.NumTuples(), 0; k > 0; k, base = k-1, base+w {
			tup := data[base : base+w : base+w]
			if !matchPreds(f.preds, tup, params) {
				continue
			}
			fa.project(tup, buf)
			if g := core.Locate(fa.prog.Probes, buf); g >= 0 {
				ts.acc.Add(fa.prog.Updates, int(g), buf)
				ts.pairs++
			}
		}
	}
}

// compileFusedPreds lowers a stage's filters to the baked-offset form the
// fused pipelines evaluate; a parameterized filter keeps its bind slot and
// reads its value at execution time.
func compileFusedPreds(in *types.Schema, filters []plan.Filter) []fusedPred {
	preds := make([]fusedPred, len(filters))
	for k, flt := range filters {
		c := in.Column(flt.Col)
		slot, _ := flt.Slot()
		preds[k] = fusedPred{off: in.Offset(flt.Col), op: flt.Op, kind: c.Kind, slot: slot,
			i: flt.Val.I, f: flt.Val.F, s: flt.Val.S, size: c.Size}
	}
	return preds
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
			v := pr.s
			if pr.slot >= 0 {
				v = params[pr.slot].S
			}
			if !pr.op.Holds(cmpChar(tup[pr.off:pr.off+pr.size], v)) {
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
