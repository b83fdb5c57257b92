// The fused join+aggregation pipeline: the paper's headline claim is
// that holistically generated code for *whole* plans — joins and grouped
// aggregation fused into tight loops, not just single-table scans —
// beats iterator and vectorised engines. This file extends the PR 3 fast
// path past single tables: a two-table equi-join plan (merge join for
// index-ordered inputs, hybrid hash-sort-merge for unsorted ones, per
// the planner's staged-algorithm selection) with optional GROUP BY
// aggregation, ORDER BY, and LIMIT compiles into one
// probe→join→filter→aggregate→emit pipeline.
//
// Like the single-table pipeline, this is an execution strategy, never a
// semantic fork: fused results are byte-identical to the general
// engines, row order included. Accumulation, finalisation, group
// emission, the value-directory probe and the coarse route are
// internal/core's own kernels (core.AggProgram, core.DirProbe,
// core.CoarseRouter) called here over pooled state, so for those the
// identity holds by construction; the merge walk, the bucketing and the
// sort's tie order are this file's loops over a flat arena and rest on
// the differential suite (internal/enginetest). What the fusion removes
// is materialised state and per-execution setup: no Plan.Bind copy
// (parameters are read from the bind vector), no staged intermediate
// tables (tuples stage into a pooled flat arena), no join-output table
// (joined tuples feed the aggregation or the final projection directly),
// and a pooled hash/partition scratch sized from the catalogue's
// cardinality estimates.

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

// fusedSide is one compiled join input: how to fetch base tuples (scan,
// index probe, or ordered index traversal), the residual predicates, the
// staging projection, and the key/partition geometry.
type fusedSide struct {
	base int // index into Plan.Tables; -1 for a chain-fed side
	// chain marks a side staged from the previous join's materialised
	// output (fusedChain's final pipeline) instead of a base table; the
	// table arrives through the execution scratch.
	chain   bool
	preds   []fusedPred
	project func(src, dst []byte)
	width   int // staged tuple width
	inWidth int // base tuple width

	key    int // join-key column in the staged schema
	keyCmp core.Compare

	// idx, when non-nil, replaces the scan with equality probes through
	// the fractal B+-tree (the stage's IndexScan spec); idxSlot is the
	// bind slot of the probe key, -1 when baked.
	idx     *plan.IndexScanSpec
	idxSlot int

	// orderedCol, when non-empty, names a base column whose B+-tree
	// yields the staged tuples already in join-key order (merge join, no
	// filters, unique key — ties would otherwise need the sort's
	// permutation), eliding the sort entirely.
	orderedCol string

	// Partitioning (hybrid and fine joins): route maps a staged tuple to
	// its partition — hash-and-modulo for coarse, value-directory binary
	// search for fine (-1 drops the tuple: a key outside the directory
	// cannot join). nil for merge join.
	partitions int
	route      func(t []byte) int32

	// estRows is the optimizer's post-filter cardinality estimate; the
	// staging arena pre-sizes from it.
	estRows int

	// par is the staging scan's worker target, resolved at generation
	// time from the plan's Parallelism and the catalogued table size
	// (parallelWorkers); 1 stages on the caller alone. Index probes and
	// ordered traversals stay serial.
	par int
}

// fusedAgg is the compiled aggregation tail of a fused join: the staging
// projection from the join tuple, the staging action geometry, and the
// shared aggregation program (core.AggProgram: updates, probes, group
// emission) that the general walk runs too.
type fusedAgg struct {
	project func(src, dst []byte) // join tuple -> staged agg tuple
	width   int
	prog    *core.AggProgram

	// Exactly one of the four modes applies, mirroring the algorithm and
	// the agg input stage's action: stream (StageNone sort aggregation —
	// the interesting-order case: groups close in join emit order),
	// sorted (StageSort), partitioned (StagePartitionCoarse, the hybrid
	// hash-sort strategy), or mapped (map aggregation: the Figure 4
	// offset formula updates flat aggregate arrays inside the join loop,
	// no staging at all).
	stream    bool
	sorted    bool
	sortCmp   core.Compare
	parts     int
	route     func(t []byte) int32
	sortParts bool
	mapped    bool

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

// fusedJoin is the compiled two-table pipeline.
type fusedJoin struct {
	p     *plan.Plan
	alg   plan.JoinAlgorithm
	sides [2]fusedSide
	// names are the canonical trace names of the two staging steps and the
	// join loop (plan.TraceJoinStage, plan.TraceJoin); rendered only for a
	// traced pipeline.
	names [3]string

	copySpec  [][]core.CopyRange // per side: staged tuple -> join tuple
	joinWidth int
	crossCmp  func(b, a []byte) int // side-1 tuple vs side-0 tuple

	// tailCopy, when non-nil, is the fully-fused emit: the tail's output
	// columns are all direct copies, so the pipeline composes the join's
	// column mapping with the tail's projection at generation time and
	// copies staged bytes straight into the output (or aggregation
	// staging) slot — the assembled join tuple never materialises, not
	// even in a buffer. Computed output columns fall back to the
	// joinBuf + projector path.
	tailCopy   [2][]core.CopyRange
	tailDirect bool

	// Non-aggregate tail: the final projection from the join tuple.
	project func(src, dst []byte)
	// Aggregate tail.
	agg *fusedAgg

	outSchema *types.Schema
	outWidth  int
	sortCmp   core.Compare // final ORDER BY, nil when absent
	limit     int
	// traced is baked at generation time (see fusedQuery.traced): the
	// serving path's cached pipelines never carry a trace, so every
	// trace branch below is statically false for them.
	traced bool
	// parJoin is the partition-wise join loop's worker target (1 =
	// serial). Only partitioned algorithms with a deterministically
	// mergeable tail — map aggregation's flat arrays, or a plain
	// projection stitched in partition order — compile a parallel join
	// phase; merge join and the collect aggregation modes run on the
	// caller alone (see DESIGN.md §8).
	parJoin int
}

// stagedSide is the output of a staging loop: the projected tuples in a
// flat arena, their partition routes (partitioned joins only), and the
// tuple count. joinScratch holds one per side; a parWorker holds one
// that its morsels' tuples land in before the caller concatenates them.
type stagedSide struct {
	arena   []byte
	partIdx []int32
	rows    int
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

	// Map aggregation: the accumulator arrays, and the per-side memo of
	// the partial group index — valid while the side's staged tuple
	// (identified by its first byte's address, stable for the whole
	// execution) is unchanged.
	acc     *core.Accum
	lastPtr [2]*byte
	lastG   [2]int32

	// Stream and collect aggregation, which only the caller-only run
	// compiles: the open group, and the staged aggregation input.
	groups core.GroupStream
	aggIn  stagedSide
}

// joinScratch holds every transient a fused join execution needs: the
// per-side staging arenas and tuple references, the partition scratch
// (the pooled analogue of a hash table, pre-sized from catalogue
// estimates), the assembled join tuple, the aggregation staging arena,
// and the accumulator state. One scratch serves one execution, drawn
// from a process-wide pool, so a warm analytics query allocates
// (amortised) nothing.
type joinScratch struct {
	staged [2]stagedSide
	refs   [2][][]byte
	parts  [2][][][]byte
	counts [2][]int

	// tail is the caller's tail state: the one the join loop writes to
	// when it runs on the caller alone, with rows going to the result
	// table and map aggregation into mapAgg.
	tail      tailState
	mapAgg    core.Accum
	aggRefs   [][]byte
	aggParts  [][][]byte
	aggCounts []int

	// chainIn feeds a chain-fed side (fusedSide.chain): the previous
	// join's materialised output, set per execution by fusedChain.run.
	chainIn *storage.Table

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
	n := cap(sc.tail.arena) + cap(sc.tail.aggIn.arena) + 24*cap(sc.aggRefs)
	for i := range sc.staged {
		n += cap(sc.staged[i].arena) + 24*cap(sc.refs[i])
	}
	for i := range sc.par.workers {
		n += cap(sc.par.workers[i].staged.arena) + cap(sc.par.workers[i].tail.arena)
	}
	if n <= maxPooledScratch {
		joinScratchPool.Put(sc)
	}
}

// newFusedJoin compiles the fused pipeline for a two-table equi-join
// plan, or returns nil when the plan's shape needs the general operator
// walk: more tables, a string computed output, or a parameterized string
// filter.
func newFusedJoin(p *plan.Plan) *fusedJoin {
	if len(p.Tables) != 2 || len(p.Joins) != 1 {
		return nil
	}
	// HAVING filters between aggregation and the sort; the fused pipeline
	// has no slot for it, so the general walk (which applies it) executes.
	if len(p.Having) > 0 {
		return nil
	}
	return compileFusedJoin(p, 0)
}

// compileFusedJoin compiles join ji and the plan tail into the fused
// two-input pipeline, or returns nil. For ji > 0 (the final join of a
// chain newFusedChain vetted as left-deep) the side reading the previous
// join's output stages from a materialised intermediate supplied at run
// time.
func compileFusedJoin(p *plan.Plan, ji int) *fusedJoin {
	j := p.Joins[ji]
	if !j.FusionEligible(ji > 0) {
		return nil
	}
	f := &fusedJoin{p: p, alg: j.Alg, limit: p.Limit, traced: p.Trace != nil}
	if f.traced {
		f.names = [3]string{plan.TraceJoinStage(ji, 0), plan.TraceJoinStage(ji, 1), plan.TraceJoin(ji)}
	}
	for i := 0; i < 2; i++ {
		st := &j.Inputs[i]
		s := &f.sides[i]
		s.base = st.Input.Base
		var in *types.Schema
		if s.base >= 0 {
			in = p.Tables[s.base].Entry.Table.Schema()
		} else {
			s.chain = true
			in = p.Joins[st.Input.Join].Schema
			if st.IndexScan != nil {
				return nil // index probes only reach base tables
			}
		}
		s.preds = compileFusedPreds(in, st.Filters)
		s.project = core.MakeProjector(in, st.Cols, st.Schema)
		s.width = st.Schema.TupleSize()
		s.inWidth = in.TupleSize()
		s.key = j.Keys[i]
		s.keyCmp = core.MakeKeyCompare(st.Schema, []int{s.key})
		s.idxSlot = -1
		if st.IndexScan != nil {
			s.idx = st.IndexScan
			if slot, ok := st.IndexScan.Slot(); ok {
				s.idxSlot = slot
			}
		}
		switch st.Action {
		case plan.StageSort:
			// Merge join. If the base table carries a B+-tree on the
			// join-key column, the key is unique, and nothing filters the
			// side, the ordered leaf traversal replaces the sort: tuples
			// arrive in exactly the order the sort would establish
			// (uniqueness means no ties, so no permutation ambiguity).
			if !s.chain && len(st.Filters) == 0 && st.IndexScan == nil {
				entry := p.Tables[s.base].Entry
				kc := st.Cols[s.key].Source
				name := in.Column(kc).Name
				stats := &entry.Stats
				if entry.Index(name) != nil && stats.Rows > 0 &&
					stats.Columns[kc].DistinctValues == stats.Rows {
					s.orderedCol = name
				}
			}
		case plan.StagePartitionCoarse:
			s.partitions = st.Partitions
			s.route = core.CoarseRouter(st.Schema, st.PartitionKey, st.Partitions)
		case plan.StagePartitionFine:
			// An empty directory (disjoint key domains) routes every tuple
			// to -1: zero partitions, nothing staged, no rows.
			s.partitions = len(st.FineValues)
			kc := st.Schema.Column(st.PartitionKey)
			s.route = core.DirProbe(kc.Kind, st.Schema.Offset(st.PartitionKey), kc.Size, st.FineValues)
			if s.route == nil {
				return nil
			}
		}
		if s.estRows = int(st.EstRows); s.estRows < 0 {
			s.estRows = 0
		}
	}
	f.crossCmp = core.CrossCompare(j.Inputs[1].Schema, j.Keys[1], j.Inputs[0].Schema, j.Keys[0])

	f.joinWidth = j.Schema.TupleSize()
	f.copySpec = core.JoinCopies(j)

	switch {
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
		if f.agg = newFusedAgg(p.Agg, j.Schema, at); f.agg == nil {
			return nil
		}
		f.outSchema = p.Agg.Schema
	case p.Final != nil:
		st := p.Final
		if st.Input.Base >= 0 || st.Input.Join != ji ||
			st.Action != plan.StageNone || len(st.Filters) != 0 || st.IndexScan != nil || !st.Projectable() {
			return nil
		}
		f.project = core.MakeProjector(j.Schema, st.Cols, st.Schema)
		f.outSchema = st.Schema
		f.tailCopy, f.tailDirect = makeTailCopy(j, st.Cols, st.Schema)
	default:
		return nil
	}
	f.outWidth = f.outSchema.TupleSize()
	if p.Sort != nil {
		f.sortCmp = core.MakeSortCompare(f.outSchema, p.Sort.Keys)
	}
	// Morsel-driven parallelism, resolved at generation time like every
	// other specialisation here (see fused_join_par.go): staging
	// parallelises per side from the catalogued table size (a chain-fed
	// side from the previous join's estimate); the partition-wise join
	// loop parallelises when the tail merges deterministically — map
	// aggregation's flat accumulator arrays, or a plain projection
	// stitched in partition order. Merge join and the collect aggregation
	// modes run on the caller alone.
	for i := 0; i < 2; i++ {
		s := &f.sides[i]
		s.par = 1
		if s.chain {
			s.par = parallelWorkers(p, int(p.Joins[ji-1].EstRows))
		} else if s.idx == nil && s.orderedCol == "" {
			s.par = parallelWorkers(p, p.Tables[s.base].Entry.Stats.Rows)
		}
	}
	f.parJoin = 1
	if (f.alg == plan.HybridJoin || f.alg == plan.FinePartitionJoin) &&
		(f.agg == nil || f.agg.mapped) {
		est := f.sides[0].estRows
		if f.sides[1].estRows > est {
			est = f.sides[1].estRows
		}
		f.parJoin = parallelWorkers(p, est)
	}
	return f
}

// workers is the pipeline's widest compiled worker target.
func (f *fusedJoin) workers() int {
	return max(f.sides[0].par, f.sides[1].par, f.parJoin)
}

// newFusedAgg compiles the aggregation tail over its input schema — a
// join's output, or the base table of the single-table pipeline — or
// returns nil when the algorithm or staging shape is outside the fused
// pipelines. The caller has vetted the input reference and owns the
// stage's filters. at, when non-nil, resolves a staged aggregation column
// to the staged join-side tuple it is a plain copy of, which lets map
// aggregation bind its directory probes and updates to the side tuples
// directly.
func newFusedAgg(a *plan.Agg, in *types.Schema, at core.ColumnAt) *fusedAgg {
	st := &a.Input
	if !a.FusionEligible() || !st.Projectable() {
		return nil
	}
	fa := &fusedAgg{
		project: core.MakeProjector(in, st.Cols, st.Schema),
		width:   st.Schema.TupleSize(),
	}
	switch {
	case a.Alg == plan.MapAggregation || len(a.GroupCols) == 0:
		// A group-less aggregate is the one-group map: no staging, no
		// partition pass, whatever algorithm the descriptor names.
		fa.mapped = true
		fa.direct = at != nil
	case st.Action == plan.StageNone:
		fa.stream = true
	case st.Action == plan.StageSort:
		fa.sorted = true
		fa.sortCmp = core.MakeKeyCompare(st.Schema, st.SortKeys)
	case st.Action == plan.StagePartitionCoarse:
		fa.parts = st.Partitions
		fa.sortParts = st.SortPartitions
		fa.sortCmp = core.MakeKeyCompare(st.Schema, st.SortKeys)
		fa.route = core.CoarseRouter(st.Schema, st.PartitionKey, st.Partitions)
	}
	if !fa.direct {
		at = nil
	}
	if fa.prog = core.CompileAgg(a, st.Schema, at); fa.prog == nil {
		return nil
	}
	if fa.direct {
		for _, pr := range fa.prog.Probes {
			fa.sideLk[pr.Src] = append(fa.sideLk[pr.Src], pr)
		}
	}
	if fa.estRows = int(st.EstRows); fa.estRows < 0 {
		fa.estRows = 0
	}
	return fa
}

// begin readies the caller's tail state in sc for one execution: the
// accumulator arrays for map aggregation, the open group and the staging
// arena for the stream and collect modes.
func (fa *fusedAgg) begin(sc *joinScratch) {
	ts := &sc.tail
	ts.aggBuf = grown(ts.aggBuf, fa.width)
	if fa.mapped {
		ts.acc = &sc.mapAgg
		ts.acc.Reset(fa.prog.NGroups, fa.prog.NAggs)
		return
	}
	ts.groups.Reset(fa.prog)
	ts.aggIn.reset(fa.estRows, fa.width)
}

// run executes the fused pipeline against a bind vector. The result
// table draws its pages from the storage arena; the caller owns it and
// releases it after draining.
func (f *fusedJoin) run(params []types.Datum) (*storage.Table, error) {
	return f.runWith(params, nil)
}

// runWith is run with an optional chain input: the previous join's
// materialised output feeding the pipeline's chain-fed side (nil for the
// plain two-table pipeline).
func (f *fusedJoin) runWith(params []types.Datum, chainIn *storage.Table) (*storage.Table, error) {
	if err := f.p.CheckArgs(params); err != nil {
		return nil, err
	}
	out := storage.NewPooledTable("result", f.outSchema)
	if f.limit == 0 {
		return out, nil
	}
	// A panic inside the pipeline is contained by the serving layer
	// (lease's containPanic), which never sees this table; without
	// the conditional release the contained error path would strand the
	// result's arena pages forever. The scratch is deliberately NOT
	// returned to its pool on that path — a half-mutated scratch must not
	// be recycled.
	done := false
	defer func() {
		if !done {
			out.Release()
		}
	}()
	sc := joinScratchPool.Get().(*joinScratch)
	sc.chainIn, sc.tail.out = chainIn, out
	f.exec(sc, params, out)
	sc.chainIn, sc.tail.out = nil, nil
	sc.release()

	out = core.FinishResult(f.p, f.sortCmp, out, true)
	done = true
	return out, nil
}

// exec stages both sides and drives the join loop into the output (or
// the aggregation tail).
func (f *fusedJoin) exec(sc *joinScratch, params []types.Datum, out *storage.Table) {
	limit := f.limit
	if f.sortCmp != nil {
		limit = -1 // ORDER BY needs every row; LIMIT truncates after the sort
	}
	var t0 time.Time
	parQ := false // did any phase of this execution run parallel?
	sorted := [2]bool{}
	for i := 0; i < 2; i++ {
		if f.traced {
			t0 = time.Now()
		}
		sorted[i] = f.stageSide(sc, i, params, &parQ)
		if f.traced {
			in := sc.chainIn
			if !f.sides[i].chain {
				in = f.p.Tables[f.sides[i].base].Entry.Table
			}
			f.p.Trace.Observe(f.names[i], int64(in.NumRows()), int64(sc.staged[i].rows), time.Since(t0))
		}
	}
	ts := &sc.tail
	f.prepTail(ts)
	if f.agg != nil {
		f.agg.begin(sc)
	}

	if f.traced {
		t0 = time.Now()
	}
	if f.alg == plan.MergeJoin {
		in0 := f.buildRefs(sc, 0)
		in1 := f.buildRefs(sc, 1)
		if !sorted[0] {
			core.SortTuples(in0, f.sides[0].keyCmp)
		}
		if !sorted[1] {
			core.SortTuples(in1, f.sides[1].keyCmp)
		}
		f.mergeJoin(ts, in0, in1, limit)
	} else {
		p0 := f.partitionSide(sc, 0)
		p1 := f.partitionSide(sc, 1)
		if f.parJoin > 1 && len(p0) > 1 {
			f.joinPar(sc, p0, p1, limit)
			parQ = true
		} else {
			f.joinPartitions(ts, p0, p1, 0, len(p0), limit)
		}
	}
	if parQ {
		morsel.CountQuery()
	}

	pairs := int64(ts.pairs)
	if f.traced {
		// The join loop's rows-out is the joined-pair count; the tail
		// (projection or aggregation updates) runs fused inside the loop,
		// so its per-stage elapsed time folds into the loop's.
		f.p.Trace.Observe(f.names[2],
			int64(sc.staged[0].rows+sc.staged[1].rows), pairs, time.Since(t0))
		if f.agg == nil {
			f.p.Trace.Observe(plan.TraceStageProject, pairs, int64(out.NumRows()), 0)
		}
	}

	if f.agg != nil {
		if f.traced {
			t0 = time.Now()
		}
		f.agg.finish(sc, out, limit)
		if f.traced {
			f.p.Trace.Observe(plan.TraceStageAgg, pairs, int64(out.NumRows()), time.Since(t0))
		}
	}
}

// prepTail readies a tail state for one join loop: the tuple buffers at
// their compiled widths, the pair and row counts and the group memo
// cleared (the state is pooled, so they carry a prior execution's
// values).
func (f *fusedJoin) prepTail(ts *tailState) {
	ts.joinBuf = grown(ts.joinBuf, f.joinWidth)
	if f.agg != nil {
		ts.aggBuf = grown(ts.aggBuf, f.agg.width)
	}
	ts.pairs, ts.rows = 0, 0
	ts.lastPtr[0], ts.lastPtr[1] = nil, nil
}

// joinPartitions joins corresponding partitions [lo, hi) of a hybrid or
// fine-partition join into ts: every partition on the caller-only run,
// one chunk of them per morsel inside a parallel join phase. It stops
// when the tail reports the pipeline complete.
func (f *fusedJoin) joinPartitions(ts *tailState, p0, p1 [][][]byte, lo, hi, limit int) {
	hybrid := f.alg == plan.HybridJoin
	for p := lo; p < hi; p++ {
		left, right := p0[p], p1[p]
		if len(left) == 0 || len(right) == 0 {
			continue
		}
		if hybrid {
			// Sort corresponding partitions just before merging them so
			// the pair is L2-resident (§V-B).
			core.SortTuples(left, f.sides[0].keyCmp)
			core.SortTuples(right, f.sides[1].keyCmp)
			if !f.mergeJoin(ts, left, right, limit) {
				return
			}
			continue
		}
		// Fine partitions hold exactly one key value, so all tuples
		// match: a pure nested loop per partition pair.
		for _, a := range left {
			for _, b := range right {
				if !f.emit(ts, a, b, limit) {
					return
				}
			}
		}
	}
}

// finish completes the aggregation tail into out: map aggregation emits
// its groups in directory order, a streaming aggregation just flushes its
// last group; collect modes sort (or partition-sort) the staged
// aggregation input and stream the groups out.
func (fa *fusedAgg) finish(sc *joinScratch, out *storage.Table, limit int) {
	prog, gs, in := fa.prog, &sc.tail.groups, &sc.tail.aggIn
	switch {
	case fa.mapped:
		prog.EmitMapGroups(&sc.mapAgg, out, limit)
	case fa.stream:
		prog.Flush(gs, out, limit)
	case fa.sorted:
		refs := sliceRefs(&sc.aggRefs, in.arena, fa.width, in.rows)
		core.SortTuples(refs, fa.sortCmp)
		for _, t := range refs {
			if !prog.Push(gs, t, out, limit) {
				return
			}
		}
		prog.Flush(gs, out, limit)
	default: // coarse partitions (hybrid hash-sort aggregation)
		parts := bucketArena(&sc.aggParts, &sc.aggCounts, &sc.aggRefs,
			in.arena, fa.width, in.rows, in.partIdx, fa.parts)
		for _, part := range parts {
			if len(part) == 0 {
				continue
			}
			if fa.sortParts {
				core.SortTuples(part, fa.sortCmp)
			}
			for _, t := range part {
				if !prog.Push(gs, t, out, limit) {
					return
				}
			}
			if !prog.Flush(gs, out, limit) {
				return
			}
		}
	}
}

// emit hands one joined pair to the pipeline tail: the final projection
// for plain joins, the aggregation staging for GROUP BY. When the tail
// is all direct copies (tailDirect), staged bytes copy straight into the
// destination slot and the join tuple never materialises; otherwise the
// pair is assembled into joinBuf and run through the compiled projector.
// It returns false when the pipeline is complete (row limit hit, or the
// streaming aggregation reached its group limit).
func (f *fusedJoin) emit(ts *tailState, t0, t1 []byte, limit int) bool {
	ts.pairs++
	fa := f.agg
	if fa == nil {
		f.fillTail(ts, t0, t1, ts.slot(f.outWidth))
		return limit < 0 || ts.rows < limit
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
	if fa.stream {
		f.fillTail(ts, t0, t1, ts.aggBuf)
		return fa.prog.Push(&ts.groups, ts.aggBuf, ts.out, limit)
	}
	// Collect mode: stage the aggregation input tuple into the arena
	// (and its partition route), deferring group evaluation to finish.
	in := &ts.aggIn
	off := len(in.arena)
	in.arena = extendArena(in.arena, fa.width)
	slot := in.arena[off : off+fa.width]
	f.fillTail(ts, t0, t1, slot)
	if fa.parts > 0 {
		in.partIdx = append(in.partIdx, fa.route(slot))
	}
	in.rows++
	return true
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
	if f.agg != nil {
		f.agg.project(buf, dst)
	} else {
		f.project(buf, dst)
	}
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

// mergeJoin is the two-way sorted merge: advance both inputs to the next
// common key, delimit the matching group in each, and emit the product —
// exactly core's mergeJoinK specialised to k = 2, so emit order matches
// the general engine byte-for-byte. Pairs emit into ts; the result is
// false when the tail reports the pipeline complete.
func (f *fusedJoin) mergeJoin(ts *tailState, in0, in1 [][]byte, limit int) bool {
	if len(in0) == 0 || len(in1) == 0 {
		return true
	}
	cross := f.crossCmp
	same0, same1 := f.sides[0].keyCmp, f.sides[1].keyCmp
	pos0, pos1 := 0, 0
	for {
		// Align both inputs on a common key.
		for {
			c := cross(in1[pos1], in0[pos0])
			for c < 0 {
				pos1++
				if pos1 >= len(in1) {
					return true
				}
				c = cross(in1[pos1], in0[pos0])
			}
			if c > 0 {
				pos0++
				if pos0 >= len(in0) {
					return true
				}
				continue
			}
			break
		}
		// Delimit the matching group in each input.
		e0 := pos0 + 1
		head0 := in0[pos0]
		for e0 < len(in0) && same0(in0[e0], head0) == 0 {
			e0++
		}
		e1 := pos1 + 1
		head1 := in1[pos1]
		for e1 < len(in1) && same1(in1[e1], head1) == 0 {
			e1++
		}
		// Emit the product of the groups; singleton groups (the
		// key/foreign-key case) skip the inner loops.
		if e0-pos0 == 1 && e1-pos1 == 1 {
			if !f.emit(ts, head0, head1, limit) {
				return false
			}
		} else {
			for a := pos0; a < e0; a++ {
				for b := pos1; b < e1; b++ {
					if !f.emit(ts, in0[a], in1[b], limit) {
						return false
					}
				}
			}
		}
		pos0, pos1 = e0, e1
		if pos0 >= len(in0) || pos1 >= len(in1) {
			return true
		}
	}
}

// stageSide fetches, filters, and projects one join input into the
// scratch arena — the staging pass of the generated code (Listing 1
// extended with the join pre-processing). It reports whether the staged
// tuples are already in key order (the ordered index traversal).
func (f *fusedJoin) stageSide(sc *joinScratch, i int, params []types.Datum, par *bool) bool {
	s := &f.sides[i]
	st := &sc.staged[i]
	st.reset(s.estRows, s.width)
	// A chain-fed side stages the previous join's materialised output; no
	// indexes exist over it, so it always stages by scan.
	t := sc.chainIn
	if !s.chain {
		entry := f.p.Tables[s.base].Entry
		t = entry.Table
		if s.idx != nil {
			if tree := entry.Index(s.idx.Column); tree != nil {
				// Equality lookups in RID order — the tuple order core's
				// ApplyIndexScan materialises, so the sort permutes identically.
				key := s.idx.Value.I
				if s.idxSlot >= 0 {
					key = params[s.idxSlot].I
				}
				tree.Range(key, key, func(_ int64, rid btree.RID) bool {
					return s.stageRID(st, t, rid, params)
				})
				return false
			}
			// Index dropped since planning: the equality filter is still in
			// preds, so the scan below stays correct.
		} else if s.orderedCol != "" {
			if tree := entry.Index(s.orderedCol); tree != nil {
				// Ordered leaf traversal: the staged tuples arrive already
				// sorted on the join key, so the merge join starts without a
				// sort — the paper's case for index-ordered inputs. Such a side
				// compiles no predicates and no route.
				tree.Ascend(func(_ int64, rid btree.RID) bool {
					return s.stageRID(st, t, rid, params)
				})
				return true
			}
		}
	}
	if s.par > 1 && s.scanPar(&sc.par, st, f.p.Pool, t, params) {
		sc.par.finish(f.p.Trace, f.names[i])
		*par = true
		return false
	}
	s.stagePages(st, t, 0, t.NumPages(), params)
	return false
}

// stage is the one stage-a-tuple step: filter the base tuple against the
// bind vector, extend the arena, project into the new slot, and record
// its partition route — or drop the tuple again when the route is
// negative (a key outside the fine directory cannot join).
func (s *fusedSide) stage(st *stagedSide, tup []byte, params []types.Datum) {
	if len(s.preds) > 0 && !matchPreds(s.preds, tup, params) {
		return
	}
	off := len(st.arena)
	st.arena = extendArena(st.arena, s.width)
	slot := st.arena[off : off+s.width]
	s.project(tup, slot)
	if s.route != nil {
		p := s.route(slot)
		if p < 0 {
			st.arena = st.arena[:off]
			return
		}
		st.partIdx = append(st.partIdx, p)
	}
	st.rows++
}

// stagePages is the full-scan staging loop over pages [lo, hi): direct
// page iteration with offset arithmetic. The caller-only run covers the
// whole table with st in the scratch; a morsel covers its page range
// with st private to the worker.
func (s *fusedSide) stagePages(st *stagedSide, t *storage.Table, lo, hi int, params []types.Datum) {
	inW := s.inWidth
	for pi := lo; pi < hi; pi++ {
		pg := t.Page(pi)
		n := pg.NumTuples()
		data := pg.Data()
		for k, base := 0, 0; k < n; k, base = k+1, base+inW {
			s.stage(st, data[base:base+inW:base+inW], params)
		}
	}
}

// stageRID stages the tuple an index entry points at, skipping entries
// whose row has since moved out of range. It always continues the
// traversal.
func (s *fusedSide) stageRID(st *stagedSide, t *storage.Table, rid btree.RID, params []types.Datum) bool {
	if int(rid.Page) < t.NumPages() {
		if page := t.Page(int(rid.Page)); int(rid.Slot) < page.NumTuples() {
			s.stage(st, page.Tuple(int(rid.Slot)), params)
		}
	}
	return true
}

// buildRefs slices the staged arena into per-tuple references.
func (f *fusedJoin) buildRefs(sc *joinScratch, i int) [][]byte {
	return sliceRefs(&sc.refs[i], sc.staged[i].arena, f.sides[i].width, sc.staged[i].rows)
}

func sliceRefs(dst *[][]byte, arena []byte, w, n int) [][]byte {
	refs := (*dst)[:0]
	if cap(refs) < n {
		refs = make([][]byte, 0, n)
	}
	if w == 0 {
		// Zero-width tuples (group-less aggregation): n empty references.
		for k := 0; k < n; k++ {
			refs = append(refs, nil)
		}
	} else {
		for k, off := 0, 0; k < n; k, off = k+1, off+w {
			refs = append(refs, arena[off:off+w:off+w])
		}
	}
	*dst = refs
	return refs
}

// partitionSide groups a staged side's tuples by their recorded
// partition route (a counting sort over the flat arena, preserving scan
// order within each partition exactly as core's per-partition appends
// do). The reference and count arrays live in the pooled scratch.
func (f *fusedJoin) partitionSide(sc *joinScratch, i int) [][][]byte {
	st := &sc.staged[i]
	return bucketArena(&sc.parts[i], &sc.counts[i], &sc.refs[i],
		st.arena, f.sides[i].width, st.rows, st.partIdx, f.sides[i].partitions)
}

func bucketArena(partsDst *[][][]byte, countsDst *[]int, refsDst *[][]byte, arena []byte, w, n int, idx []int32, m int) [][][]byte {
	if m <= 1 {
		// One partition: the bucket is the staging order itself.
		refs := sliceRefs(refsDst, arena, w, n)
		parts := (*partsDst)[:0]
		parts = append(parts, refs)
		*partsDst = parts
		return parts
	}
	counts := *countsDst
	if cap(counts) < m {
		counts = make([]int, m)
	} else {
		counts = counts[:m]
		for p := range counts {
			counts[p] = 0
		}
	}
	for _, p := range idx {
		counts[p]++
	}
	// Prefix sums -> per-partition start offsets.
	start := 0
	for p := range counts {
		c := counts[p]
		counts[p] = start
		start += c
	}
	// Stable scatter into the pooled reference array, laid out partition
	// by partition.
	ordered := *refsDst
	if cap(ordered) < n {
		ordered = make([][]byte, n)
	} else {
		ordered = ordered[:n]
	}
	for k := 0; k < n; k++ {
		var t []byte
		if w > 0 {
			off := k * w
			t = arena[off : off+w : off+w]
		}
		p := idx[k]
		ordered[counts[p]] = t
		counts[p]++
	}
	parts := (*partsDst)[:0]
	if cap(parts) < m {
		parts = make([][][]byte, 0, m)
	}
	prev := 0
	for p := 0; p < m; p++ {
		end := counts[p]
		parts = append(parts, ordered[prev:end])
		prev = end
	}
	*partsDst = parts
	*countsDst = counts
	*refsDst = ordered
	return parts
}

// preSize converts the optimizer's cardinality estimate into an initial
// arena capacity, capped so a wild estimate cannot front-load a huge
// allocation (past the cap the arena grows geometrically as staged
// tuples actually arrive).
func preSize(estRows, width int) int {
	const maxPreSize = 1 << 20
	want := estRows * width
	if want > maxPreSize {
		return maxPreSize
	}
	return want
}

// reset empties the staged side for one execution, pre-sizing the arena
// from the optimizer's estimate.
func (st *stagedSide) reset(estRows, width int) {
	st.arena, st.partIdx, st.rows = st.arena[:0], st.partIdx[:0], 0
	if want := preSize(estRows, width); want > 0 && cap(st.arena) < want {
		st.arena = make([]byte, 0, want)
	}
}

// grown returns b resliced to n bytes, reallocating only when short.
func grown(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// extendArena grows a flat staging arena by w bytes, reusing capacity.
func extendArena(b []byte, w int) []byte {
	if len(b)+w <= cap(b) {
		return b[:len(b)+w]
	}
	nb := make([]byte, len(b)+w, 2*(len(b)+w)+256)
	copy(nb, b)
	return nb
}
