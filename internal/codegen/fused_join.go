// The fused join+aggregation pipeline: the paper's headline claim is
// that holistically generated code for *whole* plans — joins and grouped
// aggregation fused into tight loops, not just single-table scans —
// beats iterator and vectorised engines. A left-deep chain of n ≥ 1
// equi-joins (merge join for index-ordered inputs, hybrid
// hash-sort-merge for unsorted ones, fine partitioning for small key
// domains, per the planner's staged-algorithm selection; TPC-H Q3 and
// Q10 are chains of two and three binary joins) with optional GROUP BY
// aggregation, HAVING, ORDER BY and LIMIT compiles into n fused join
// loops. A join team — k ≥ 3 inputs sharing one key class (§V-B) — is
// the chain of one join with k staged sides: core's merge walk is
// already k-way, and its fine-partition product takes any k. The last
// join emits into the plan tail; every other one's tail stages each
// joined tuple set straight into the next join's chain-fed input, so no
// join output is ever materialised as a table.
//
// Every loop here is internal/core's own, so results are byte-identical
// to core.Engine's walk (the differential oracle), row order included —
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
	// previous join's stage tail has staged (and, for an unstaged merge
	// input, emitted in key order) by the time this join runs.
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

	// name is the staging step's canonical trace name
	// (plan.TraceJoinStage); rendered only for a traced pipeline.
	name string
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
	// aggregation tuple, and sideLk holds each side's probes (up to the
	// last side that has any). The group contribution of a side is
	// loop-invariant while that side's tuple is fixed, so the join loop
	// memoises it per side and the inner loop touches only the
	// aggregate-argument bytes.
	direct bool
	sideLk [][]core.GroupProbe

	estRows int
}

// fusedJoin is one compiled join of a left-deep chain — binary, or a
// team of k inputs: the head of the chain runs it and every join after it
// (next), so a plan of one join is the chain of one.
type fusedJoin struct {
	p     *plan.Plan
	sides []fusedSide
	loop  *core.JoinLoop
	// name and order are the canonical trace names of the join loop
	// (plan.TraceJoin) and of its inputs' ordering (plan.TraceJoinOrder);
	// rendered only for a traced pipeline.
	name, order string

	// first is the side staged first (keyFilterPlan); filterKey, when it
	// has a word, is its staged join key, from which exec builds the
	// filter the sides with a Stager.FilterKey stage through.
	first     int
	filterKey core.Key

	copySpec  [][]core.CopyRange // per side: staged tuple -> join tuple
	joinWidth int

	// tailCopy, when tailDirect, is the fully-fused emit: the tail's
	// output columns are all direct copies, so the pipeline composes the
	// join's column mapping with the tail's projection at generation time
	// and copies staged bytes straight into the output (or staging) slot —
	// the assembled join tuple never materialises, not even in a buffer.
	// Computed output columns fall back to joinBuf + project.
	tailCopy   [][]core.CopyRange
	tailDirect bool
	// project writes the tail's tuple from the assembled join tuple, a
	// batch of one: the final projection, or the tail stage's projection.
	project func(sc *core.Scratch, data []byte, w int, sel []int32, dst []byte)

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

	outWidth int       // the final projection's row width
	sortKey  *core.Key // final ORDER BY on the chain's head, nil when absent
	limit    int       // the loop's bound (loopLimit; -1 below the last join)
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
	aggBuf  []byte // a streaming aggregation's staged tuple
	// vec holds the registers of the tail's batch-of-one projections and
	// folds, drawn from core's scratch pool for one join loop.
	vec *core.Scratch
	// pairs counts joined tuples handed to the tail: the join's rows-out.
	pairs int
	// cur is the join loop's cursor.
	cur core.Cursor

	// Map aggregation: the accumulator arrays, and the per-side memo of
	// the partial group index — valid while the side's staged tuple
	// (identified by its first byte's address, stable for the whole
	// execution) is unchanged.
	acc     *core.Accum
	lastPtr []*byte
	lastG   []int32

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
	// One entry per side of the widest join run so far; a join of k sides
	// uses the first k.
	staged []core.Arena
	bk     []core.Buckets
	parts  [][][][]byte // the bucketed sides the join loop reads
	// filter is the running join's key filter, built from its first side.
	filter core.KeyFilter

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

// sides readies the per-side state for a join of k inputs. It only ever
// grows: a pooled scratch keeps every side's arenas and buckets.
func (sc *joinScratch) sides(k int) {
	for len(sc.staged) < k {
		sc.staged = append(sc.staged, core.Arena{})
		sc.bk = append(sc.bk, core.Buckets{})
		sc.parts = append(sc.parts, nil)
	}
}

// release returns the scratch to the pool unless its arenas and
// reference arrays outgrew core.MaxPooledScratch (BENCH_serving's
// join+aggregation holds ~100 KB).
func (sc *joinScratch) release() {
	n := cap(sc.tail.arena) + cap(sc.tail.staged.Data) + sc.filter.Bytes()
	for i := range sc.staged {
		n += cap(sc.staged[i].Data) + sc.bk[i].Bytes()
	}
	for i := range sc.par.workers {
		n += cap(sc.par.workers[i].tail.staged.Data) + cap(sc.par.workers[i].tail.arena)
	}
	if n <= core.MaxPooledScratch {
		joinScratchPool.Put(sc)
	}
}

// newFusedJoin compiles a left-deep chain of equi-joins — join 0 reads
// base tables only, join i > 0 the output of join i−1 on one side and
// base tables on the others — and the plan tail consuming its last join
// into one fused join per descriptor, and returns the chain's head.
func newFusedJoin(p *plan.Plan) (*fusedJoin, error) {
	var next *fusedJoin
	for ji := len(p.Joins) - 1; ji >= 0; ji-- {
		var err error
		if next, err = compileFusedJoin(p, ji, next); err != nil {
			return nil, err
		}
	}
	next.sortKey = orderKey(p)
	return next, nil
}

// compileFusedJoin compiles join ji and its tail — a stage tail into
// next's chain-fed side, or, when next is nil, the plan tail.
func compileFusedJoin(p *plan.Plan, ji int, next *fusedJoin) (*fusedJoin, error) {
	j := p.Joins[ji]
	if !j.FusionEligible(ji > 0) {
		return nil, unfusable("join %d: a %v join of %d inputs staged other than its loop reads", ji, j.Alg, len(j.Inputs))
	}
	f := &fusedJoin{p: p, sides: make([]fusedSide, len(j.Inputs)), loop: core.CompileJoin(j), limit: -1, traced: p.Trace != nil, next: next}
	if next == nil {
		f.limit = loopLimit(p)
	}
	if f.traced {
		f.name, f.order = plan.TraceJoin(ji), plan.TraceJoinOrder(ji)
	}
	fed, est := 0, 0 // est: the largest side's estimate
	for i := range f.sides {
		st := &j.Inputs[i]
		s := &f.sides[i]
		s.base, s.estRows, s.par = st.Input.Base, max(int(st.EstRows), 0), 1
		est = max(est, s.estRows)
		if f.traced {
			s.name = plan.TraceJoinStage(ji, i)
		}
		var err error
		if s.base < 0 {
			// The chain-fed side. The planner filters base tables only, so
			// the previous join's stage tail has nothing to drop.
			if st.Input.Join != ji-1 || len(st.Filters) != 0 || st.IndexScan != nil {
				return nil, unfusable("join %d: a filtered or non-adjacent intermediate input", ji)
			}
			fed++
			if s.Stager, err = core.CompileStage(st, p.Joins[ji-1].Schema); err != nil {
				return nil, err
			}
			continue
		}
		entry := p.Tables[s.base].Entry
		in := entry.Table.Schema()
		if s.Stager, err = core.CompileStage(st, in); err != nil {
			return nil, err
		}
		s.idx, s.orderedCol = st.IndexScan, orderedColumn(p, j, i)
		// Morsel-driven staging, resolved at generation time like every
		// other specialisation here (see fused_join_par.go), from the
		// catalogued table size.
		if s.idx == nil && s.orderedCol == "" {
			s.par = parallelWorkers(p, entry.Stats.Rows)
		}
	}
	if (ji > 0) != (fed == 1) {
		return nil, unfusable("join %d: not a left-deep chain", ji)
	}
	first, keyCols := keyFilterPlan(p, j)
	f.first = first
	for i, col := range keyCols {
		if col >= 0 {
			f.sides[i].FilterKey = core.CompileKey(p.Tables[f.sides[i].base].Entry.Table.Schema(), []int{col})
			f.filterKey = core.CompileKey(j.Inputs[first].Schema, []int{j.Keys[first]})
		}
	}

	f.joinWidth = j.Schema.TupleSize()
	f.copySpec = core.JoinCopies(j)

	switch {
	case next != nil:
		cs := 0
		for next.sides[cs].base >= 0 {
			cs++
		}
		st := &p.Joins[ji+1].Inputs[cs]
		f.stage, f.stageEst = next.sides[cs].Stager, next.sides[cs].estRows
		f.project = f.stage.Project
		f.tailCopy, f.tailDirect = makeTailCopy(j, st.Cols, st.Schema)
	case p.Agg != nil:
		st := &p.Agg.Input
		if st.Input.Base >= 0 || st.Input.Join != ji || len(st.Filters) != 0 || st.IndexScan != nil {
			return nil, unfusable("an aggregation over anything but the last join's output")
		}
		var at core.ColumnAt // nil: the assembled join tuple
		if f.tailCopy, f.tailDirect = makeTailCopy(j, st.Cols, st.Schema); f.tailDirect {
			// Every staged column is a width-matched copy of a join input
			// column: resolve to that side's staged tuple.
			at = func(col int) (int8, int) {
				o := j.Out[st.Cols[col].Source]
				return int8(o.Input), j.Inputs[o.Input].Schema.Offset(o.Col)
			}
		}
		s, err := core.CompileStage(st, j.Schema)
		if err != nil {
			return nil, err
		}
		if f.agg, err = newFusedAgg(p.Agg, s, j.Schema, at); err != nil {
			return nil, err
		}
		f.project = s.Project
		if !f.agg.mapped && !f.agg.stream {
			f.stage, f.stageEst = s, f.agg.estRows // collect mode
		}
	case p.Final != nil:
		st := p.Final
		if st.Input.Base >= 0 || st.Input.Join != ji ||
			st.Action != plan.StageNone || len(st.Filters) != 0 || st.IndexScan != nil || !st.Projectable() {
			return nil, unfusable("a final projection that stages, filters or computes CHAR over the last join")
		}
		f.project = core.MakeProjector(j.Schema, st.Cols, st.Schema).Project
		f.outWidth = st.Schema.TupleSize()
		f.tailCopy, f.tailDirect = makeTailCopy(j, st.Cols, st.Schema)
	default:
		return nil, unfusable("a plan without aggregation or final projection")
	}
	f.parJoin = 1
	if j.Alg != plan.MergeJoin && (f.agg == nil || !f.agg.stream) {
		f.parJoin = parallelWorkers(p, est)
	}
	return f, nil
}

// orderedColumn names the base column of join j's input i whose B+-tree
// yields that input in join-key order, or "" when there is none. Merge
// join: if the base table carries a B+-tree on the join-key column, the key
// is unique, and nothing filters the side, the ordered leaf traversal
// replaces the sort — tuples arrive in exactly the order the sort would
// establish (uniqueness means no ties, so no permutation ambiguity).
func orderedColumn(p *plan.Plan, j *plan.Join, i int) string {
	st := &j.Inputs[i]
	if st.Input.Base < 0 || st.Action != plan.StageSort || len(st.Filters) != 0 || st.IndexScan != nil {
		return ""
	}
	entry := p.Tables[st.Input.Base].Entry
	kc := st.Cols[j.Keys[i]].Source
	name := entry.Table.Schema().Column(kc).Name
	if stats := &entry.Stats; entry.Index(name) != nil && stats.Rows > 0 &&
		stats.Columns[kc].DistinctValues == stats.Rows {
		return name
	}
	return ""
}

// keyFilterPlan decides how join j stages its inputs. first is the input
// staged first: the chain-fed one, else the base input with the smallest
// estimate (the lowest index among equals); the others follow in index
// order. keyCols[i], when >= 0, is input i's join key column in its base
// table: its staging scan drops the tuples whose key the first input's
// staged tuples lack, through the join-key filter built from them. A join
// none of whose inputs is filtered stages in index order (first 0). Only
// keys that encode to one word on every input filter (core.Key: numeric,
// or CHAR of at most 8 bytes), and only inputs staged by a scan of a base
// column: an index probe or an ordered traversal fetches no pages to
// refine. A fine partition join filters nothing, since its value directory
// already drops the keys outside the inputs' common catalogued domain, and
// dropping those as well would count tuples its route drops anyway.
func keyFilterPlan(p *plan.Plan, j *plan.Join) (first int, keyCols []int) {
	for i := range j.Inputs {
		if in := &j.Inputs[i]; in.Input.Base < 0 {
			first = i
			break
		} else if in.EstRows < j.Inputs[first].EstRows {
			first = i
		}
	}
	filters := j.Alg != plan.FinePartitionJoin
	for i := range j.Inputs {
		filters = filters && core.CompileKey(j.Inputs[i].Schema, j.Keys[i:i+1]).Words() == 1
	}
	keyCols, some := make([]int, len(j.Inputs)), false
	for i := range j.Inputs {
		st := &j.Inputs[i]
		c := st.Cols[j.Keys[i]]
		keyCols[i] = -1
		if filters && i != first && st.Input.Base >= 0 && st.IndexScan == nil && c.Source >= 0 && c.Compute == nil && orderedColumn(p, j, i) == "" {
			keyCols[i], some = c.Source, true
		}
	}
	if !some {
		first = 0
	}
	return first, keyCols
}

// nthStaged is the index of the k-th input a join stages: first, then the
// others in index order.
func nthStaged(k, first int) int {
	if k > first {
		return k
	}
	if k == 0 {
		return first
	}
	return k - 1
}

// workers is the chain's widest compiled worker target.
func (f *fusedJoin) workers() int {
	w := 1
	for ; f != nil; f = f.next {
		w = max(w, f.parJoin)
		for i := range f.sides {
			w = max(w, f.sides[i].par)
		}
	}
	return w
}

// newFusedAgg compiles the aggregation tail over its input stage s —
// compiled over in, a join's output or the base table of the
// single-table pipeline. The caller has vetted the input reference. at,
// when non-nil, resolves a staged aggregation column to the staged
// join-side tuple it is a plain copy of, which lets map aggregation bind
// its directory probes and updates to the side tuples directly.
func newFusedAgg(a *plan.Agg, s *core.Stager, in *types.Schema, at core.ColumnAt) (*fusedAgg, error) {
	if !a.FusionEligible() {
		return nil, unfusable("a %v aggregation over a %v input", a.Alg, a.Input.Action)
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
	fa.prog = core.CompileAgg(a, in, at)
	if fa.direct {
		for _, pr := range fa.prog.Probes {
			fa.sideLk = core.Grown(fa.sideLk, max(len(fa.sideLk), int(pr.Src)+1))
			fa.sideLk[pr.Src] = append(fa.sideLk[pr.Src], pr)
		}
	}
	return fa, nil
}

// begin readies the caller's tail state in sc for one execution: the
// accumulator arrays for map aggregation, the open group for the stream
// and collect modes.
func (fa *fusedAgg) begin(sc *joinScratch) {
	ts := &sc.tail
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
	return runFrame(f.p, f.sortKey, params, func(out *storage.Table) {
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
// buckets them all, and drives the join loop into the tail. It reports
// whether any phase ran parallel.
func (f *fusedJoin) exec(sc *joinScratch, params []types.Datum) bool {
	var t0 time.Time
	par := false
	ts := &sc.tail
	fed := int64(ts.pairs) // the previous join's rows-out
	sc.sides(len(f.sides))
	var sorted uint64 // bit i: side i staged in key order (sides past 63 sort)
	var kf *core.KeyFilter
	dropped := 0
	// The first side stages first and its keys build the filter.
	for k := range f.sides {
		i := nthStaged(k, f.first)
		if f.traced {
			t0 = time.Now()
		}
		s := &f.sides[i]
		in := fed
		if s.base < 0 {
			// The previous join staged this side into the tail arena: swap
			// it in, handing the side's spent arena to this join's tail.
			sc.staged[i], ts.staged = ts.staged, sc.staged[i]
		} else {
			read, ordered := f.stageSide(sc, i, params, &par, kf)
			core.CountSkipped(read.Skipped)
			core.CountDropped(read.Dropped)
			dropped += read.Dropped
			if ordered {
				sorted |= 1 << i
			}
			if f.traced {
				in = int64(read.Rows)
				f.p.Trace.ObservePages(s.name, int64(read.Read), int64(read.Skipped))
				f.p.Trace.ObserveDropped(s.name, int64(read.Dropped))
			}
		}
		if k == 0 && f.filterKey.Words() > 0 && sc.filter.Build(&sc.staged[i], s.Width, &f.filterKey) {
			kf = &sc.filter
		}
		if f.traced {
			f.p.Trace.Observe(s.name, in, int64(sc.staged[i].Rows), time.Since(t0))
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
	// Every side stages before any is bucketed: bucketing each right
	// after its staging moves a collection into the join loop on
	// analytic-size inputs (DESIGN.md §4.5).
	parts := sc.parts[:len(f.sides)]
	staged := 0
	for i := range parts {
		parts[i] = f.sides[i].Order(&sc.staged[i], &sc.bk[i], sorted&(1<<i) != 0)
		staged += sc.staged[i].Rows
	}
	if f.traced {
		f.p.Trace.Observe(f.order, int64(staged), int64(staged), time.Since(t0))
		f.p.Trace.ObserveDropped(f.order, int64(dropped))
		t0 = time.Now()
	}
	if m := len(parts[0]); f.parJoin > 1 && m > 1 {
		f.joinPar(sc, parts)
		par = true
	} else {
		f.join(ts, parts, 0, m)
	}

	pairs := int64(ts.pairs)
	if f.traced {
		// The join loop's rows-out is the joined-pair count; the tail
		// (staging, projection or aggregation updates) runs fused inside
		// the loop, so its per-stage elapsed time folds into the loop's.
		f.p.Trace.Observe(f.name, int64(staged), pairs, time.Since(t0))
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
	ts.joinBuf = core.Grown(ts.joinBuf, f.joinWidth)
	if fa := f.agg; fa != nil {
		ts.aggBuf = core.Grown(ts.aggBuf, fa.st.Width)
		ts.lastPtr, ts.lastG = core.Grown(ts.lastPtr, len(fa.sideLk)), core.Grown(ts.lastG, len(fa.sideLk))
		clear(ts.lastPtr)
	}
	ts.pairs, ts.rows = 0, 0
}

// join runs core's join loop over partitions [lo, hi) of the bucketed
// sides into ts: every partition on the caller-only run, one chunk of
// them per morsel inside a parallel join phase. It stops when the tail
// reports the pipeline complete.
func (f *fusedJoin) join(ts *tailState, parts [][][][]byte, lo, hi int) {
	ts.vec = core.GetScratch()
	f.loop.Run(parts, lo, hi, &ts.cur, func(c *core.Cursor) bool { return f.emit(ts, c) })
	ts.vec.Put()
	ts.vec = nil
}

// finish completes the aggregation tail into out: map aggregation emits
// its groups in directory order, a streaming aggregation just flushes its
// last group; collect modes order the staged aggregation input as its
// stage says — sorted, or partitioned and each partition sorted — and
// stream the groups out. The join's buckets are free by then, so the
// ordering reuses the first side's (a single-table pipeline has none yet).
func (fa *fusedAgg) finish(sc *joinScratch, out *storage.Table, limit int) {
	prog, gs := fa.prog, &sc.tail.groups
	switch {
	case fa.mapped:
		prog.EmitMapGroups(&sc.mapAgg, out, limit)
	case fa.stream:
		prog.Flush(gs, out, limit)
	default:
		sc.sides(1)
		prog.StreamParts(gs, fa.st.Order(&sc.tail.staged, &sc.bk[0], false), out, limit)
	}
}

// emit hands one joined tuple set to the join's tail: the next join's
// chain-fed staging or a collect-mode aggregation's (the stage tail),
// the map or streaming aggregation, or the final projection. When the
// tail is all direct copies (tailDirect), staged bytes copy straight into
// the destination slot and the join tuple never materialises; otherwise
// the set is assembled into joinBuf and run through the compiled
// projector. It returns false when the pipeline is complete (row limit
// hit, or the streaming aggregation reached its group limit).
func (f *fusedJoin) emit(ts *tailState, c *core.Cursor) bool {
	ts.pairs++
	if s := f.stage; s != nil {
		// Stage the tail's tuple into the arena with its partition route;
		// the consumer orders the arena once the loop is done.
		f.fillTail(ts, c, ts.staged.Slots(1, s.Width))
		ts.staged.Keep(ts.vec, 1, s.Width, s.Router)
		return true
	}
	fa := f.agg
	if fa == nil {
		slot, _ := ts.slots(1, f.outWidth)
		f.fillTail(ts, c, slot)
		return f.limit < 0 || ts.rows < f.limit
	}
	if fa.mapped {
		// The fully-fused pipeline: locate the group slot via the value
		// directories and update the flat aggregate arrays right here in
		// the join loop (paper Fig. 4) — no staging, no sort, no state
		// but the arrays. A negative group is a value outside its
		// directory (stale statistics): the set is skipped.
		acc := ts.acc
		if !fa.direct {
			// The program reads the assembled join tuple, a batch of one.
			var one [1]int32
			fa.prog.FoldBatch(acc, ts.vec, f.assemble(ts, c), 0, one[:])
			return true
		}
		// Side-bound probes with a per-side memo: a side's group
		// contribution is invariant while its tuple is fixed, which
		// hoists the directory probe out of the join's inner loop.
		g := 0
		for s, lks := range fa.sideLk {
			if len(lks) == 0 {
				continue
			}
			t := c.Tuple(s)
			pg := ts.lastG[s]
			if ts.lastPtr[s] != &t[0] {
				pg = core.Locate(ts.vec, lks, t)
				ts.lastPtr[s], ts.lastG[s] = &t[0], pg
			}
			if pg < 0 {
				return true
			}
			g += int(pg)
		}
		acc.AddFrom(fa.prog.Updates, g, c)
		return true
	}
	f.fillTail(ts, c, ts.aggBuf)
	return fa.prog.Push(&ts.groups, ts.aggBuf, ts.out, f.limit)
}

// fillTail writes the tail's output tuple for the cursor's tuple set.
func (f *fusedJoin) fillTail(ts *tailState, c *core.Cursor, dst []byte) {
	if f.tailDirect {
		for i, spec := range f.tailCopy {
			core.CopyInto(dst, c.Tuple(i), spec)
		}
		return
	}
	f.project(ts.vec, f.assemble(ts, c), 0, ts.vec.One(), dst)
}

// assemble writes the join tuple of the cursor's tuple set into joinBuf.
func (f *fusedJoin) assemble(ts *tailState, c *core.Cursor) []byte {
	for i, spec := range f.copySpec {
		core.CopyInto(ts.joinBuf, c.Tuple(i), spec)
	}
	return ts.joinBuf
}

// makeTailCopy composes the join's column mapping with a tail stage's
// projection: when every tail output column is a direct copy of a join
// column (itself a direct copy of a staged column), the result is one
// coalesced staged→output byte-range list per side and the join tuple
// needs no buffer at all. ok is false when any column is computed or
// widths disagree.
func makeTailCopy(j *plan.Join, cols []plan.OutputColumn, out *types.Schema) ([][]core.CopyRange, bool) {
	spec := make([][]core.CopyRange, len(j.Inputs))
	for i := range cols {
		c := &cols[i]
		if c.Source < 0 || c.Compute != nil {
			return nil, false
		}
		o := j.Out[c.Source]
		src := j.Inputs[o.Input].Schema
		size := out.Column(i).Size
		if src.Column(o.Col).Size != size {
			return nil, false
		}
		spec[o.Input] = core.AppendCopy(spec[o.Input], core.CopyRange{SrcOff: src.Offset(o.Col), DstOff: out.Offset(i), Size: size})
	}
	return spec, true
}

// stageSide fetches, filters, projects and routes one base-table join
// input into the scratch arena — the staging pass of the generated code
// (Listing 1 extended with the join pre-processing); a side with a key
// offset also drops from its scan the tuples whose key kf, when non-nil,
// lacks. It returns what the probe, traversal or scan read, and whether
// the staged tuples are already in key order (the ordered index
// traversal).
func (f *fusedJoin) stageSide(sc *joinScratch, i int, params []types.Datum, par *bool, kf *core.KeyFilter) (core.Pages, bool) {
	s := &f.sides[i]
	if s.FilterKey.Words() == 0 {
		kf = nil
	}
	a := &sc.staged[i]
	a.Reset(s.estRows, s.Width)
	entry := f.p.Tables[s.base].Entry
	t := entry.Table
	if s.idx != nil {
		if tree := entry.Index(s.idx.Column); tree != nil {
			return core.Pages{Rows: s.StageProbe(a, t, tree, s.idx.Key(params), params)}, false
		}
		// Index dropped since planning: the equality filter is still in
		// the predicates, so the scan below stays correct.
	} else if s.orderedCol != "" {
		if tree := entry.Index(s.orderedCol); tree != nil {
			// Ordered leaf traversal: the staged tuples arrive already
			// sorted on the join key, so the merge join starts without a
			// sort — the paper's case for index-ordered inputs. Such a side
			// compiles no predicates and no route.
			var read core.Pages
			vec := core.GetScratch()
			defer vec.Put()
			tree.Ascend(func(_ int64, rid btree.RID) bool {
				if tup, ok := core.FetchRID(t, rid); ok {
					s.Stage(vec, a, tup, params)
					read.Rows++
				}
				return true
			})
			return read, true
		}
	}
	if s.par > 1 && sc.par.stageScan(s.Stager, s.par, a, f.p.Pool, t, params, kf) {
		read := sc.par.pages()
		sc.par.finish(f.p.Trace, s.name)
		*par = true
		return read, false
	}
	return s.StagePages(a, t, 0, t.NumPages(), params, kf), false
}
