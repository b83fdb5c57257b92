// The fused fast path: for a single-table SELECT — point or range
// lookup, residual filters, projection, optional ORDER BY and LIMIT — the
// generator emits one pipeline that goes index-probe → filter → project
// directly into the result table; a single-table aggregation is the same
// scan feeding the aggregation tails of the fused join (fused_join.go)
// instead: the no-join instance of that pipeline. This is the holistic
// fusion of the paper's Listing 1 extended across the whole plan: no
// staged intermediate, no per-execution closure compilation, no separate
// materialisation pass. HAVING, ORDER BY and LIMIT run through
// core.FinishResult, the tail core's operator walk uses too. The
// pipeline runs core's kernels over the planner's descriptors, so every
// engine keeps byte-identical results.

package codegen

import (
	"time"

	"hique/internal/btree"
	"hique/internal/core"
	"hique/internal/morsel"
	"hique/internal/plan"
	"hique/internal/storage"
	"hique/internal/types"
)

// fusedQuery is the compiled single-table pipeline.
type fusedQuery struct {
	p    *plan.Plan
	base int
	// st is the compiled stage: the predicates, with parameter values read
	// from the bind vector at execution time, and the projection — into
	// the result, or into the aggregation tail's staged tuple.
	st *core.Stager
	// idx, when non-nil, replaces the scan — into the result or the
	// aggregation tail — with fractal B+-tree lookups; the matching filter
	// stays in the predicates, so a dropped index degrades to the scan
	// without changing results.
	idx *plan.IndexScanSpec
	// limit bounds the rows (or groups) the loop produces: the plan's
	// LIMIT, or -1 when the result is filtered or sorted before the tail
	// truncates it.
	limit int
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
	// tuple straight into accumulator arrays (core's FoldPages); the
	// collect modes stage through st — the scan's filter with the
	// aggregation input's projection and coarse route, as a join side
	// stages — and sort in fusedAgg.finish.
	agg *fusedAgg
	// sortKey is the ORDER BY's key over the result, nil when absent.
	sortKey *core.Key
}

// newFused compiles the fused pipeline for a single-table plan.
func newFused(p *plan.Plan) (*fusedQuery, error) {
	st := p.Final
	if p.Agg != nil {
		st = &p.Agg.Input
	}
	if st == nil || st.Input.Base < 0 || st.Input.Base >= len(p.Tables) {
		return nil, unfusable("a single-table plan without a base-table input")
	}
	entry := p.Tables[st.Input.Base].Entry
	s, err := core.CompileStage(st, entry.Table.Schema())
	if err != nil {
		return nil, err
	}
	f := &fusedQuery{
		p:      p,
		base:   st.Input.Base,
		st:     s,
		idx:    st.IndexScan,
		limit:  loopLimit(p),
		traced: p.Trace != nil,
		par:    parallelWorkers(p, entry.Stats.Rows),
	}
	f.sortKey = orderKey(p)
	if p.Agg != nil {
		if f.agg, err = newFusedAgg(p.Agg, s, entry.Table.Schema(), nil); err != nil {
			return nil, err
		}
		if f.agg.stream {
			return nil, unfusable("a streaming aggregation over a base table")
		}
	} else if st.Action != plan.StageNone {
		return nil, unfusable("a %v staging step before the final projection", st.Action)
	}
	return f, nil
}

// orderKey compiles the plan's ORDER BY over its result, nil when absent.
func orderKey(p *plan.Plan) *core.Key {
	if p.Sort == nil {
		return nil
	}
	k := core.CompileOrder(p.ResultSchema(), p.Sort.Keys)
	return &k
}

// loopLimit is the bound on what a pipeline's loop produces: the plan's
// LIMIT, unless HAVING or ORDER BY must see every row (or group) before
// the shared tail truncates.
func loopLimit(p *plan.Plan) int {
	if p.Sort != nil || len(p.Having) > 0 {
		return -1
	}
	return p.Limit
}

// runFrame is the run of every fused pipeline: check the bind vector,
// draw the result table from the storage arena, let fill write the
// pipeline's rows into it — unless LIMIT 0 leaves nothing to compute —
// and apply the shared HAVING → ORDER BY → LIMIT tail (order is the
// compiled ORDER BY). The caller owns the returned table and releases it
// after draining (hique's materialisation path does).
func runFrame(p *plan.Plan, order *core.Key, params []types.Datum, fill func(out *storage.Table)) (*storage.Table, error) {
	if err := p.CheckArgs(params); err != nil {
		return nil, err
	}
	out := storage.NewPooledTable("result", p.ResultSchema())
	if p.Limit == 0 {
		return out, nil
	}
	// A panic inside fill is contained by the serving layer (lease's
	// containPanic), which never sees this table; without the conditional
	// release the contained error path would strand the result's arena
	// pages forever.
	done := false
	defer func() {
		if !done {
			out.Release()
		}
	}()
	fill(out)
	out = core.FinishResult(p, order, out, true)
	done = true
	return out, nil
}

// run executes the pipeline against a bind vector.
func (f *fusedQuery) run(params []types.Datum) (*storage.Table, error) {
	return runFrame(f.p, f.sortKey, params, func(out *storage.Table) {
		var t0 time.Time
		if f.traced {
			t0 = time.Now()
		}
		entry := f.p.Tables[f.base].Entry
		t := entry.Table
		// tree is the index the plan probes, or nil: no index access, or
		// the index was dropped since planning — the equality filter is
		// still in the predicates, so the scan stays correct.
		var tree *btree.Tree
		if f.idx != nil {
			tree = entry.Index(f.idx.Column)
		}
		stage := plan.TraceStageProject
		var read core.Pages
		if f.agg != nil {
			read = f.runAgg(t, tree, params, out)
			stage = plan.TraceStageAgg
		} else {
			read = f.runScan(t, tree, params, out)
		}
		core.CountSkipped(read.Skipped)
		if f.traced {
			f.p.Trace.Observe(stage, int64(read.Rows), int64(out.NumRows()), time.Since(t0))
			f.p.Trace.ObservePages(stage, int64(read.Read), int64(read.Skipped))
		}
	})
}

// runScan filters and projects the table into out: through the index
// tree when non-nil, otherwise by scan. It returns what the loop read:
// the tuples the probe fetched, or the scan's pages.
func (f *fusedQuery) runScan(t *storage.Table, tree *btree.Tree, params []types.Datum, out *storage.Table) core.Pages {
	if f.par > 1 && tree == nil {
		return f.scanPar(t, params, out)
	}
	sc := core.GetScratch()
	defer sc.Put()
	if tree != nil {
		n := core.Probe(t, tree, f.idx.Key(params), func(tup []byte) bool {
			if !core.MatchPreds(f.st.Preds, tup, params) {
				return true
			}
			f.st.Project(sc, tup, len(tup), sc.One(), out.AppendSlot())
			return f.limit < 0 || out.NumRows() < f.limit
		})
		return core.Pages{Rows: n}
	}
	return f.scanPages(t, 0, t.NumPages(), params, &rowDst{out: out}, sc)
}

// scanPages is the fused full-scan loop over pages [lo, hi), skipping the
// pages whose bounds the predicates exclude. The caller-only run covers
// the whole table with dst on the result; a morsel covers its page range
// with dst on the worker's arena. It stops early once dst holds limit
// rows, and returns the pages it read and skipped. sc is the caller's,
// drawn once per worker: a LIMIT scan's morsels read a few tuples each,
// and a pool round trip per morsel would be a large share of them.
func (f *fusedQuery) scanPages(t *storage.Table, lo, hi int, params []types.Datum, dst *rowDst, sc *core.Scratch) core.Pages {
	prune := f.st.Prune
	var read core.Pages
	for pi := lo; pi < hi; pi++ {
		if len(prune) > 0 && !core.PageMayMatch(prune, t, pi, params) {
			read.Skipped++
			continue
		}
		pg := t.Page(pi)
		read.Read++
		read.Rows += pg.NumTuples()
		if !f.scanPage(sc, pg.Data(), pg.NumTuples(), params, dst) {
			break
		}
	}
	return read
}

// scanPage filters one page's n tuples into a selection vector
// (core.SelectPage) and projects the survivors into dst in one batch per
// run of contiguous output slots: the Listing 1 pattern, page at a time.
// Under LIMIT it filters the page a prefix at a time, each as long as
// the rows still missing, so it examines no more tuples than the limit
// needs, and it returns false once dst holds limit rows. The page body is
// its own function so that the tuple loop keeps nothing of the page walk
// live across its calls (DESIGN.md §8.3 has the measurement).
func (f *fusedQuery) scanPage(sc *core.Scratch, data []byte, n int, params []types.Datum, dst *rowDst) bool {
	s := f.st
	w := s.InWidth
	for lo := 0; lo < n; {
		cnt := n - lo
		if f.limit >= 0 {
			if dst.rows >= f.limit {
				return false
			}
			cnt = min(cnt, f.limit-dst.rows)
		}
		for sel := sc.Select(s.Preds, data[lo*w:], cnt, w, params); len(sel) > 0; {
			slots, k := dst.slots(len(sel), s.Width)
			s.Project(sc, data[lo*w:], w, sel[:k], slots)
			sel = sel[k:]
		}
		lo += cnt
	}
	return f.limit < 0 || dst.rows < f.limit
}

// scanClaimed, when non-nil, is called by scanPar's workers with each
// morsel they claim, before they scan it: a test hook that orders claims
// against a LIMIT's cancel. It is nil outside tests.
var scanClaimed func(ph *parPhase, m int)

// scanPar splits the scan into page-range morsels executed by up to
// f.par workers: every worker runs scanPages into its private arena,
// records each morsel's byte range, and the caller stitches the ranges
// back in morsel order — byte-identical to the caller-only scan, LIMIT
// included (a morsel emits at most limit rows, and once the completed
// morsel prefix covers the limit the unclaimed tail is cancelled).
func (f *fusedQuery) scanPar(t *storage.Table, params []types.Datum, out *storage.Table) core.Pages {
	per, n := pageMorsels(t, morsel.Rows)
	pages := t.NumPages()
	if n < 2 || core.FewCandidates(f.st.Prune, t, params, morsel.Rows) {
		// Table shrank below one morsel since planning, or its bounds
		// leave less than one morsel to read: the caller-only run is
		// strictly cheaper.
		sc := core.GetScratch()
		defer sc.Put()
		return f.scanPages(t, 0, pages, params, &rowDst{out: out}, sc)
	}
	ph := parPhasePool.Get().(*parPhase)
	ph.reset(n, f.par, f.limit)
	ph.run(f.p.Pool, f.par, func(wi int) {
		dst := &ph.workers[wi].tail.rowDst
		sc := core.GetScratch()
		defer sc.Put()
		for {
			m, ok := ph.queue.Next()
			if !ok {
				return
			}
			if scanClaimed != nil {
				scanClaimed(ph, m)
			}
			mo := parMorsel{worker: int32(wi), start: len(dst.arena)}
			dst.rows = 0
			mo.pages = f.scanPages(t, m*per, min((m+1)*per, pages), params, dst, sc)
			mo.rows, mo.end = dst.rows, len(dst.arena)
			ph.complete(m, mo)
		}
	})
	ph.stitchRows(out, f.st.Width, f.limit)
	read := ph.pages()
	ph.finish(f.p.Trace, plan.TraceStageProject)
	morsel.CountQuery()
	parPhasePool.Put(ph)
	return read
}

// runAgg drives the probe or scan into the aggregation tail and emits
// the groups into out. Map and group-less aggregation fold the table
// chunk by chunk — page-range morsels, each into a private accumulator,
// merged in ascending chunk order — on every worker count, one included:
// the split is a pure function of the page count, so float sums fold in
// one order whatever the worker target, claim timing or admitted
// helpers. A chunk covers at least four tuples per accumulator slot so
// the merges stay a fraction of the scan. Collect modes stage as a join
// side does and stitch in morsel order. An index tree, when non-nil,
// replaces the scan: the caller folds or stages the tuples it fetches. A
// scan whose unskipped pages hold fewer than morsel.Rows tuples runs on
// the caller alone, in one fold. It returns what the probe or scan read.
func (f *fusedQuery) runAgg(t *storage.Table, tree *btree.Tree, params []types.Datum, out *storage.Table) core.Pages {
	fa := f.agg
	sc := joinScratchPool.Get().(*joinScratch)
	ts, ph := &sc.tail, &sc.par
	fa.begin(sc)
	if !fa.mapped {
		ts.staged.Reset(fa.estRows, f.st.Width)
	}
	pages := t.NumPages()
	per, n := pageMorsels(t, max(morsel.Rows, 4*fa.prog.NGroups*fa.prog.NAggs))
	var read core.Pages
	switch {
	case tree != nil && fa.mapped:
		read.Rows = fa.prog.FoldProbe(ts.acc, f.st, t, tree, f.idx.Key(params), params)
	case tree != nil:
		read.Rows = f.st.StageProbe(&ts.staged, t, tree, f.idx.Key(params), params)
	case !fa.mapped:
		if f.par > 1 && ph.stageScan(f.st, f.par, &ts.staged, f.p.Pool, t, params, nil) {
			read = ph.pages()
			ph.finish(f.p.Trace, plan.TraceStageAgg)
			morsel.CountQuery()
		} else {
			read = f.st.StagePages(&ts.staged, t, 0, pages, params, nil)
		}
	case n < 2 || core.FewCandidates(f.st.Prune, t, params, morsel.Rows):
		_, read = fa.prog.FoldPages(ts.acc, f.st, t, 0, pages, params)
	default:
		ph.reset(n, f.par, -1)
		sc.resetChunkMaps(n)
		ph.run(f.p.Pool, f.par, func(wi int) {
			wk := &ph.workers[wi]
			for {
				m, ok := ph.queue.Next()
				if !ok {
					return
				}
				acc := sc.chunkMap(wk, m, fa.prog)
				folded, pg := fa.prog.FoldPages(acc, f.st, t, m*per, min((m+1)*per, pages), params)
				ph.complete(m, parMorsel{worker: int32(wi), rows: folded, pages: pg})
			}
		})
		sc.mergeChunkMaps()
		read = ph.pages()
		if f.par > 1 {
			ph.finish(f.p.Trace, plan.TraceStageAgg)
			morsel.CountQuery()
		}
	}
	fa.finish(sc, out, f.limit)
	sc.release()
	return read
}
