// The fused join+aggregation pipeline: the paper's headline claim is
// that holistically generated code for *whole* plans — joins and grouped
// aggregation fused into tight loops, not just single-table scans —
// beats iterator and vectorised engines. A left-deep chain of k ≥ 1
// binary equi-joins (merge join for index-ordered inputs, hybrid
// hash-sort-merge for unsorted ones, fine partitioning for small key
// domains, per the planner's staged-algorithm selection; TPC-H Q3 and
// Q10 are chains of two and three) with optional GROUP BY aggregation,
// HAVING, ORDER BY and LIMIT compiles into k fused join loops. The last
// one emits into the plan tail; every other one's tail stages each
// joined pair straight into the next join's chain-fed input, so no join
// output is ever materialised as a table.
//
// Like the single-table pipeline, this is an execution strategy, never a
// semantic fork: fused results are byte-identical to the general walk,
// row order included, because every loop here is internal/core's own —
// the predicates, the staging step (core.Stager), the bucketing
// (core.Buckets), the join loop and merge walk (core.JoinLoop), the
// accumulators and group emission (core.AggProgram) and the HAVING /
// ORDER BY / LIMIT tail (core.FinishResult) — called over pooled state,
// and a join emits in the order the walk appends to its output table.
// What the fusion removes is materialised state and per-execution setup:
// no Plan.Bind copy (parameters are read from the bind vector), no
// join-output table (joined tuples feed the next join's staging, the
// aggregation or the final projection directly), and a pooled staging
// and partition scratch sized from the catalogue's cardinality
// estimates.

package codegen

import (
	"sync"
	"time"

	"hique/internal/btree"
	"hique/internal/core"
	"hique/internal/morsel"
	"hique/internal/plan"
	"hique/internal/storage"
	"hique/internal/types"
)

// fusedSide is one compiled join input: the staging step, and how to
// fetch base tuples (scan, index probe, or ordered index traversal).
type fusedSide struct {
	*core.Stager
	// base indexes Plan.Tables; -1 marks the chain-fed side, which the
	// previous join's stage tail has staged by the time this join runs.
	base int

	// idx, when non-nil, replaces the scan with equality probes through
	// the fractal B+-tree (the stage's IndexScan spec).
	idx *plan.IndexScanSpec

	// orderedCol, when non-empty, names a base column whose B+-tree
	// yields the staged tuples already in join-key order (merge join, no
	// filters, unique key — ties would otherwise need the sort's
	// permutation), eliding the sort entirely.
	orderedCol string

	// estRows is the optimizer's post-filter cardinality estimate; the
	// staging arena pre-sizes from it.
	estRows int

	// par is the staging scan's worker target, resolved at generation
	// time from the plan's Parallelism and the catalogued table size
	// (parallelWorkers); 1 stages on the caller alone. Index probes,
	// ordered traversals and the chain-fed side stage no scan.
	par int
}

// fusedAgg is the compiled aggregation tail of a fused pipeline: the
// aggregation input's staging step over the tail's input and the shared
// aggregation program (core.AggProgram: updates, probes, group emission)
// that the general walk runs too.
type fusedAgg struct {
	st   *core.Stager
	prog *core.AggProgram

	// One of three modes applies, mirroring the algorithm and the input
	// stage's action: stream (StageNone sort aggregation — the
	// interesting-order case: groups close in join emit order), mapped
	// (map aggregation: the Figure 4 offset formula updates flat
	// aggregate arrays inside the join loop, no staging at all), or —
	// neither — collect: stage the input into the scratch arena, then
	// sort or partition-sort it and stream the groups (finish).
	stream bool
	mapped bool

	// direct marks a map aggregation whose every staged column is a plain
	// copy of a join input column: the program's probes and updates are
	// then compiled against the staged *side* tuples instead of a composed
	// aggregation tuple, and sideLk holds each side's probes. The group
	// contribution of a side is loop-invariant while that side's tuple is
	// fixed, so the join loop memoises it per side and the inner loop
	// touches only the aggregate-argument bytes.
	direct bool
	sideLk [2][]core.GroupProbe

	estRows int
}

// fusedJoin is one compiled binary join of a left-deep chain: the head of
// the chain runs it and every join after it (next), so a two-table plan
// is the chain of one.
type fusedJoin struct {
	p     *plan.Plan
	sides [2]fusedSide
	loop  *core.JoinLoop
	// names are the canonical trace names of the two staging steps and the
	// join loop (plan.TraceJoinStage, plan.TraceJoin); rendered only for a
	// traced pipeline.
	names [3]string

	copySpec  [][]core.CopyRange // per side: staged tuple -> join tuple
	joinWidth int

	// tailCopy, when non-nil, is the fully-fused emit: the tail's output
	// columns are all direct copies, so the pipeline composes the join's
	// column mapping with the tail's projection at generation time and
	// copies staged bytes straight into the output (or staging) slot —
	// the assembled join tuple never materialises, not even in a buffer.
	// Computed output columns fall back to joinBuf + project.
	tailCopy   [2][]core.CopyRange
	tailDirect bool
	// project writes the tail's tuple from the assembled join tuple: the
	// final projection, or the tail stage's projection.
	project func(src, dst []byte)

	// The tail is one of three. stage, when non-nil, is a stage tail: each
	// joined pair is staged — projected and routed — into an arena, which
	// is the next join's chain-fed side (next non-nil) or a collect-mode
	// aggregation's input; stageEst pre-sizes it. Otherwise agg is the
	// map or streaming aggregation, or, nil, the final projection.
	stage    *core.Stager
	stageEst int
	agg      *fusedAgg
	// next is the chain's next join, which this join's stage tail feeds;
	// nil for the last join, whose tail is the plan's.
	next *fusedJoin

	outWidth int          // the final projection's row width
	sortCmp  core.Compare // final ORDER BY on the chain's head, nil when absent
	limit    int          // the loop's bound (loopLimit; -1 below the last join)
	// traced is baked at generation time (see fusedQuery.traced): the
	// serving path's cached pipelines never carry a trace, so every
	// trace branch below is statically false for them.
	traced bool
	// parJoin is the partition-wise join loop's worker target (1 =
	// serial). Every fine or hybrid join compiles a parallel join phase
	// unless its tail is a streaming aggregation, whose groups close in
	// emit order: map aggregation merges per-chunk flat arrays, and the
	// projection and stage tails stitch per-chunk outputs in partition
	// order. Merge join runs on the caller alone (see DESIGN.md §8).
	parJoin int
}

// tailState is everything the join loop's tail (emit, fillTail) writes
// to for one worker: held once by joinScratch for the caller-only run
// and once per parWorker inside a morsel phase, so the loops exist once
// and take it as an argument.
type tailState struct {
	// rowDst takes a non-aggregate tail's output rows; out is also where
	// a streaming aggregation emits its closed groups.
	rowDst
	joinBuf []byte // assembled join tuple (tails that are not direct copies)
	aggBuf  []byte // staged aggregation tuple
	// pairs counts joined tuples handed to the tail: the join's rows-out.
	pairs int
	// cur is the join loop's cursor.
	cur core.Cursor

	// Map aggregation: the accumulator arrays, and the per-side memo of
	// the partial group index — valid while the side's staged tuple
	// (identified by its first byte's address, stable for the whole
	// execution) is unchanged.
	acc     *core.Accum
	lastPtr [2]*byte
	lastG   [2]int32

	// groups is a streaming or collect-mode aggregation's open group.
	groups core.GroupStream
	// staged is a stage tail's output (the caller's is swapped into the
	// next join as its chain-fed side, or ordered by the collect-mode
	// aggregation) and, in a worker, a staging scan's morsels.
	staged core.Arena
}

// joinScratch holds every transient a fused join execution needs: the
// per-side staging arenas and their buckets (the pooled analogue of a
// hash table, pre-sized from catalogue estimates), the assembled join
// tuple, the stage tail's arena, and the accumulator state. One scratch
// serves one execution of a whole chain, its joins running one after
// the other, drawn from a process-wide pool, so a warm analytics query
// allocates (amortised) nothing.
type joinScratch struct {
	staged [2]core.Arena
	bk     [2]core.Buckets
	parts  [2][][][]byte // the bucketed sides the join loop reads

	// tail is the caller's tail state: the one the join loop writes to
	// when it runs on the caller alone, with rows going to the result
	// table and map aggregation into mapAgg.
	tail   tailState
	mapAgg core.Accum

	// par is the morsel-phase state for parallel executions (staging
	// scans and the partition-wise join loop reuse it sequentially);
	// chunkMaps holds each partition chunk's map-aggregation accumulator
	// until the in-order merge. Both are retained by the pool like every
	// other scratch field.
	par       parPhase
	chunkMaps []*core.Accum
}

var joinScratchPool = sync.Pool{New: func() any { return new(joinScratch) }}

// maxPooledScratch bounds the staging memory a scratch may keep alive in
// the pool. A serving-size execution (BENCH_serving's join+aggregation
// holds ~100 KB) stays allocation-free; an analytic-size one (28 MB for
// TPC-H Q3 at SF 0.1) goes back to the collector instead: kept in every
// P's pool slot it stays live and doubles through GC pacing into
// resident memory (tpch_analytic peak_rss_mb 243 → 335 when pooled).
const maxPooledScratch = 4 << 20

// release returns the scratch to the pool unless its arenas and
// reference arrays outgrew maxPooledScratch.
func (sc *joinScratch) release() {
	n := cap(sc.tail.arena) + cap(sc.tail.staged.Data)
	for i := range sc.staged {
		n += cap(sc.staged[i].Data) + sc.bk[i].Bytes()
	}
	for i := range sc.par.workers {
		n += cap(sc.par.workers[i].tail.staged.Data) + cap(sc.par.workers[i].tail.arena)
	}
	if n <= maxPooledScratch {
		joinScratchPool.Put(sc)
	}
}

// newFusedJoin compiles a left-deep chain of binary equi-joins — join 0
// reads two base tables, join i > 0 the output of join i−1 on one side
// and a base table on the other — and the plan tail consuming its last
// join into one fused join per descriptor, and returns the chain's head.
// It returns nil when the plan's shape needs the general operator walk:
// no join, a join team or bushy tree, a string computed output, or a
// stage or algorithm the pipeline does not run.
func newFusedJoin(p *plan.Plan) *fusedJoin {
	var next *fusedJoin
	for ji := len(p.Joins) - 1; ji >= 0; ji-- {
		if next = compileFusedJoin(p, ji, next); next == nil {
			return nil
		}
	}
	if next != nil && p.Sort != nil {
		next.sortCmp = core.MakeSortCompare(p.ResultSchema(), p.Sort.Keys)
	}
	return next
}

// compileFusedJoin compiles join ji and its tail — a stage tail into
// next's chain-fed side, or, when next is nil, the plan tail — or
// returns nil.
func compileFusedJoin(p *plan.Plan, ji int, next *fusedJoin) *fusedJoin {
	j := p.Joins[ji]
	if !j.FusionEligible(ji > 0) {
		return nil
	}
	f := &fusedJoin{p: p, loop: core.CompileJoin(j), limit: -1, traced: p.Trace != nil, next: next}
	if next == nil {
		f.limit = loopLimit(p)
	}
	if f.traced {
		f.names = [3]string{plan.TraceJoinStage(ji, 0), plan.TraceJoinStage(ji, 1), plan.TraceJoin(ji)}
	}
	fed := 0
	for i := 0; i < 2; i++ {
		st := &j.Inputs[i]
		s := &f.sides[i]
		s.base, s.estRows, s.par = st.Input.Base, max(int(st.EstRows), 0), 1
		if s.base < 0 {
			// The chain-fed side. The planner filters base tables only, so
			// the previous join's stage tail has nothing to drop.
			if st.Input.Join != ji-1 || len(st.Filters) != 0 || st.IndexScan != nil {
				return nil
			}
			fed++
			if s.Stager = compileStage(st, p.Joins[ji-1].Schema); s.Stager == nil {
				return nil
			}
			continue
		}
		entry := p.Tables[s.base].Entry
		in := entry.Table.Schema()
		if s.Stager = compileStage(st, in); s.Stager == nil {
			return nil
		}
		s.idx = st.IndexScan
		// Merge join. If the base table carries a B+-tree on the join-key
		// column, the key is unique, and nothing filters the side, the
		// ordered leaf traversal replaces the sort: tuples arrive in
		// exactly the order the sort would establish (uniqueness means no
		// ties, so no permutation ambiguity).
		if st.Action == plan.StageSort && len(st.Filters) == 0 && st.IndexScan == nil {
			kc := st.Cols[j.Keys[i]].Source
			name := in.Column(kc).Name
			stats := &entry.Stats
			if entry.Index(name) != nil && stats.Rows > 0 &&
				stats.Columns[kc].DistinctValues == stats.Rows {
				s.orderedCol = name
			}
		}
		// Morsel-driven staging, resolved at generation time like every
		// other specialisation here (see fused_join_par.go), from the
		// catalogued table size.
		if s.idx == nil && s.orderedCol == "" {
			s.par = parallelWorkers(p, entry.Stats.Rows)
		}
	}
	if (ji > 0) != (fed == 1) {
		return nil // not left-deep
	}

	f.joinWidth = j.Schema.TupleSize()
	f.copySpec = core.JoinCopies(j)

	switch {
	case next != nil:
		cs := 0
		if next.sides[1].base < 0 {
			cs = 1
		}
		st := &p.Joins[ji+1].Inputs[cs]
		f.stage, f.stageEst = next.sides[cs].Stager, next.sides[cs].estRows
		f.project = f.stage.Project
		f.tailCopy, f.tailDirect = makeTailCopy(j, st.Cols, st.Schema)
	case p.Agg != nil:
		st := &p.Agg.Input
		if st.Input.Base >= 0 || st.Input.Join != ji || len(st.Filters) != 0 || st.IndexScan != nil {
			return nil
		}
		var at core.ColumnAt // nil: the composed aggregation tuple
		if f.tailCopy, f.tailDirect = makeTailCopy(j, st.Cols, st.Schema); f.tailDirect {
			// Every staged column is a width-matched copy of a join input
			// column: resolve to that side's staged tuple.
			at = func(col int) (int8, int) {
				o := j.Out[st.Cols[col].Source]
				return int8(o.Input), j.Inputs[o.Input].Schema.Offset(o.Col)
			}
		}
		s := compileStage(st, j.Schema)
		if s == nil {
			return nil
		}
		if f.agg = newFusedAgg(p.Agg, s, at); f.agg == nil {
			return nil
		}
		f.project = s.Project
		if !f.agg.mapped && !f.agg.stream {
			f.stage, f.stageEst = s, f.agg.estRows // collect mode
		}
	case p.Final != nil:
		st := p.Final
		if st.Input.Base >= 0 || st.Input.Join != ji ||
			st.Action != plan.StageNone || len(st.Filters) != 0 || st.IndexScan != nil || !st.Projectable() {
			return nil
		}
		f.project = core.MakeProjector(j.Schema, st.Cols, st.Schema)
		f.outWidth = st.Schema.TupleSize()
		f.tailCopy, f.tailDirect = makeTailCopy(j, st.Cols, st.Schema)
	default:
		return nil
	}
	f.parJoin = 1
	if j.Alg != plan.MergeJoin && (f.agg == nil || !f.agg.stream) {
		f.parJoin = parallelWorkers(p, max(f.sides[0].estRows, f.sides[1].estRows))
	}
	return f
}

// workers is the chain's widest compiled worker target.
func (f *fusedJoin) workers() int {
	w := 1
	for ; f != nil; f = f.next {
		w = max(w, f.sides[0].par, f.sides[1].par, f.parJoin)
	}
	return w
}

// newFusedAgg compiles the aggregation tail over its input stage s —
// compiled over a join's output, or the base table of the single-table
// pipeline — or returns nil when the algorithm or staging shape is
// outside the fused pipelines. The caller has vetted the input reference.
// at, when non-nil, resolves a staged aggregation column to the staged
// join-side tuple it is a plain copy of, which lets map aggregation bind
// its directory probes and updates to the side tuples directly.
func newFusedAgg(a *plan.Agg, s *core.Stager, at core.ColumnAt) *fusedAgg {
	if !a.FusionEligible() {
		return nil
	}
	fa := &fusedAgg{st: s, estRows: max(int(a.Input.EstRows), 0)}
	switch {
	case a.Alg == plan.MapAggregation || len(a.GroupCols) == 0:
		// A group-less aggregate is the one-group map: no staging, no
		// partition pass, whatever algorithm the descriptor names.
		fa.mapped = true
		fa.direct = at != nil
	case a.Input.Action == plan.StageNone:
		fa.stream = true
	}
	if !fa.direct {
		at = nil
	}
	if fa.prog = core.CompileAgg(a, a.Input.Schema, at); fa.prog == nil {
		return nil
	}
	if fa.direct {
		for _, pr := range fa.prog.Probes {
			fa.sideLk[pr.Src] = append(fa.sideLk[pr.Src], pr)
		}
	}
	return fa
}

// begin readies the caller's tail state in sc for one execution: the
// accumulator arrays for map aggregation, the open group for the stream
// and collect modes.
func (fa *fusedAgg) begin(sc *joinScratch) {
	ts := &sc.tail
	ts.aggBuf = grown(ts.aggBuf, fa.st.Width)
	if fa.mapped {
		ts.acc = &sc.mapAgg
		ts.acc.Reset(fa.prog.NGroups, fa.prog.NAggs)
		return
	}
	ts.groups.Reset(fa.prog)
}

// run executes the chain against a bind vector, its joins one after the
// other over one pooled scratch. The scratch is deliberately NOT
// returned to its pool when the pipeline panics — a half-mutated scratch
// must not be recycled.
func (f *fusedJoin) run(params []types.Datum) (*storage.Table, error) {
	return runFrame(f.p, f.sortCmp, params, func(out *storage.Table) {
		sc := joinScratchPool.Get().(*joinScratch)
		sc.tail.out = out
		par := false
		for j := f; j != nil; j = j.next {
			par = j.exec(sc, params) || par
		}
		if par {
			morsel.CountQuery()
		}
		sc.tail.out = nil
		sc.release()
	})
}

// exec runs one join of the chain: it stages its base sides (the
// chain-fed side arrives staged in the caller's stage-tail arena),
// buckets both, and drives the join loop into the tail. It reports
// whether any phase ran parallel.
func (f *fusedJoin) exec(sc *joinScratch, params []types.Datum) bool {
	var t0 time.Time
	par := false
	ts := &sc.tail
	fed := int64(ts.pairs) // the previous join's rows-out
	var sorted [2]bool
	for i := range f.sides {
		if f.traced {
			t0 = time.Now()
		}
		s := &f.sides[i]
		if s.base < 0 {
			// The previous join staged this side into the tail arena: swap
			// it in, handing the side's spent arena to this join's tail.
			sc.staged[i], ts.staged = ts.staged, sc.staged[i]
		} else {
			sorted[i] = f.stageSide(sc, i, params, &par)
		}
		if f.traced {
			in := fed
			if s.base >= 0 {
				in = int64(f.p.Tables[s.base].Entry.Table.NumRows())
			}
			f.p.Trace.Observe(f.names[i], in, int64(sc.staged[i].Rows), time.Since(t0))
		}
	}
	f.prepTail(ts)
	if f.stage != nil {
		ts.staged.Reset(f.stageEst, f.stage.Width)
	}
	if f.agg != nil {
		f.agg.begin(sc)
	}

	if f.traced {
		t0 = time.Now()
	}
	// Both sides stage before either is bucketed: bucketing each right
	// after its staging moves a collection into the join loop on
	// analytic-size inputs (DESIGN.md §4.5).
	for i := range sc.parts {
		sc.parts[i] = f.sides[i].Order(&sc.staged[i], &sc.bk[i], sorted[i])
	}
	if m := len(sc.parts[0]); f.parJoin > 1 && m > 1 {
		f.joinPar(sc, m)
		par = true
	} else {
		f.join(ts, sc.parts[:], 0, m)
	}

	pairs := int64(ts.pairs)
	if f.traced {
		// The join loop's rows-out is the joined-pair count; the tail
		// (staging, projection or aggregation updates) runs fused inside
		// the loop, so its per-stage elapsed time folds into the loop's.
		f.p.Trace.Observe(f.names[2],
			int64(sc.staged[0].Rows+sc.staged[1].Rows), pairs, time.Since(t0))
		if f.agg == nil && f.next == nil {
			f.p.Trace.Observe(plan.TraceStageProject, pairs, int64(ts.out.NumRows()), 0)
		}
	}

	if f.agg != nil {
		if f.traced {
			t0 = time.Now()
		}
		f.agg.finish(sc, ts.out, f.limit)
		if f.traced {
			f.p.Trace.Observe(plan.TraceStageAgg, pairs, int64(ts.out.NumRows()), time.Since(t0))
		}
	}
	return par
}

// prepTail readies a tail state for one join loop: the tuple buffers at
// their compiled widths, the pair and row counts and the group memo
// cleared (the state is pooled, so they carry a prior execution's
// values).
func (f *fusedJoin) prepTail(ts *tailState) {
	ts.joinBuf = grown(ts.joinBuf, f.joinWidth)
	if f.agg != nil {
		ts.aggBuf = grown(ts.aggBuf, f.agg.st.Width)
	}
	ts.pairs, ts.rows = 0, 0
	ts.lastPtr[0], ts.lastPtr[1] = nil, nil
}

// join runs core's join loop over partitions [lo, hi) of the bucketed
// sides into ts: every partition on the caller-only run, one chunk of
// them per morsel inside a parallel join phase. It stops when the tail
// reports the pipeline complete.
func (f *fusedJoin) join(ts *tailState, parts [][][][]byte, lo, hi int) {
	f.loop.Run(parts, lo, hi, &ts.cur, func(c *core.Cursor) bool { return f.emit(ts, c.Tuple(0), c.Tuple(1)) })
}

// finish completes the aggregation tail into out: map aggregation emits
// its groups in directory order, a streaming aggregation just flushes its
// last group; collect modes order the staged aggregation input as its
// stage says — sorted, or partitioned and each partition sorted — and
// stream the groups out. The join's buckets are free by then, so the
// ordering reuses the first side's.
func (fa *fusedAgg) finish(sc *joinScratch, out *storage.Table, limit int) {
	prog, gs := fa.prog, &sc.tail.groups
	switch {
	case fa.mapped:
		prog.EmitMapGroups(&sc.mapAgg, out, limit)
	case fa.stream:
		prog.Flush(gs, out, limit)
	default:
		prog.StreamParts(gs, fa.st.Order(&sc.tail.staged, &sc.bk[0], false), out, limit)
	}
}

// emit hands one joined pair to the join's tail: the next join's
// chain-fed staging or a collect-mode aggregation's (the stage tail),
// the map or streaming aggregation, or the final projection. When the
// tail is all direct copies (tailDirect), staged bytes copy straight into
// the destination slot and the join tuple never materialises; otherwise
// the pair is assembled into joinBuf and run through the compiled
// projector. It returns false when the pipeline is complete (row limit
// hit, or the streaming aggregation reached its group limit).
func (f *fusedJoin) emit(ts *tailState, t0, t1 []byte) bool {
	ts.pairs++
	if s := f.stage; s != nil {
		// Stage the tail's tuple into the arena with its partition route;
		// the consumer orders the arena once the loop is done.
		slot := ts.staged.Slot(s.Width)
		f.fillTail(ts, t0, t1, slot)
		ts.staged.Keep(slot, s.Route)
		return true
	}
	fa := f.agg
	if fa == nil {
		f.fillTail(ts, t0, t1, ts.slot(f.outWidth))
		return f.limit < 0 || ts.rows < f.limit
	}
	if fa.mapped {
		// The fully-fused pipeline: locate the group slot via the value
		// directories and update the flat aggregate arrays right here in
		// the join loop (paper Fig. 4) — no staging, no sort, no state
		// but the arrays. A negative group is a value outside its
		// directory (stale statistics): the pair is skipped.
		acc := ts.acc
		if !fa.direct {
			f.fillTail(ts, t0, t1, ts.aggBuf)
			if g := core.Locate(fa.prog.Probes, ts.aggBuf); g >= 0 {
				acc.Add(fa.prog.Updates, int(g), ts.aggBuf)
			}
			return true
		}
		// Side-bound probes with a per-side memo: a side's group
		// contribution is invariant while its tuple is fixed, which
		// hoists the directory probe out of the join's inner loop.
		g := 0
		for s := 0; s < 2; s++ {
			lks := fa.sideLk[s]
			if len(lks) == 0 {
				continue
			}
			t := t0
			if s == 1 {
				t = t1
			}
			pg := ts.lastG[s]
			if ts.lastPtr[s] != &t[0] {
				pg = core.Locate(lks, t)
				ts.lastPtr[s], ts.lastG[s] = &t[0], pg
			}
			if pg < 0 {
				return true
			}
			g += int(pg)
		}
		acc.AddFrom(fa.prog.Updates, g, t0, t1)
		return true
	}
	f.fillTail(ts, t0, t1, ts.aggBuf)
	return fa.prog.Push(&ts.groups, ts.aggBuf, ts.out, f.limit)
}

// fillTail writes the tail's output tuple for one joined pair.
func (f *fusedJoin) fillTail(ts *tailState, t0, t1, dst []byte) {
	if f.tailDirect {
		core.CopyInto(dst, t0, f.tailCopy[0])
		core.CopyInto(dst, t1, f.tailCopy[1])
		return
	}
	buf := ts.joinBuf
	core.CopyInto(buf, t0, f.copySpec[0])
	core.CopyInto(buf, t1, f.copySpec[1])
	f.project(buf, dst)
}

// makeTailCopy composes the join's column mapping with a tail stage's
// projection: when every tail output column is a direct copy of a join
// column (itself a direct copy of a staged column), the result is a pair
// of coalesced staged→output byte-range lists and the join tuple needs
// no buffer at all. ok is false when any column is computed or widths
// disagree.
func makeTailCopy(j *plan.Join, cols []plan.OutputColumn, out *types.Schema) ([2][]core.CopyRange, bool) {
	var spec [2][]core.CopyRange
	for i := range cols {
		c := &cols[i]
		if c.Source < 0 || c.Compute != nil {
			return spec, false
		}
		o := j.Out[c.Source]
		src := j.Inputs[o.Input].Schema
		size := out.Column(i).Size
		if src.Column(o.Col).Size != size {
			return spec, false
		}
		spec[o.Input] = core.AppendCopy(spec[o.Input], core.CopyRange{SrcOff: src.Offset(o.Col), DstOff: out.Offset(i), Size: size})
	}
	return spec, true
}

// stageSide fetches, filters, projects and routes one base-table join
// input into the scratch arena — the staging pass of the generated code
// (Listing 1 extended with the join pre-processing). It reports whether
// the staged tuples are already in key order (the ordered index
// traversal).
func (f *fusedJoin) stageSide(sc *joinScratch, i int, params []types.Datum, par *bool) bool {
	s := &f.sides[i]
	a := &sc.staged[i]
	a.Reset(s.estRows, s.Width)
	entry := f.p.Tables[s.base].Entry
	t := entry.Table
	if s.idx != nil {
		if tree := entry.Index(s.idx.Column); tree != nil {
			core.Probe(t, tree, s.idx.Key(params), func(tup []byte) bool {
				s.Stage(a, tup, params)
				return true
			})
			return false
		}
		// Index dropped since planning: the equality filter is still in
		// the predicates, so the scan below stays correct.
	} else if s.orderedCol != "" {
		if tree := entry.Index(s.orderedCol); tree != nil {
			// Ordered leaf traversal: the staged tuples arrive already
			// sorted on the join key, so the merge join starts without a
			// sort — the paper's case for index-ordered inputs. Such a side
			// compiles no predicates and no route.
			tree.Ascend(func(_ int64, rid btree.RID) bool {
				if tup, ok := core.FetchRID(t, rid); ok {
					s.Stage(a, tup, params)
				}
				return true
			})
			return true
		}
	}
	if s.par > 1 && sc.par.stageScan(s.Stager, s.par, a, f.p.Pool, t, params) {
		sc.par.finish(f.p.Trace, f.names[i])
		*par = true
		return false
	}
	s.StagePages(a, t, 0, t.NumPages(), params)
	return false
}

// grown returns b resliced to n bytes, reallocating only when short.
func grown(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}
