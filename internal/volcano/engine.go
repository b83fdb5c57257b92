package volcano

import (
	"fmt"
	"time"

	"hique/internal/plan"
	"hique/internal/storage"
	"hique/internal/types"
)

// Engine executes optimizer plans through iterator trees: the traditional
// engine design HIQUE is compared against. Intermediate join results are
// materialised between operators, as in the paper's evaluation setup.
type Engine struct {
	mode Mode
}

// NewGeneric builds the generic-iterator engine.
func NewGeneric() *Engine { return &Engine{mode: Generic} }

// NewOptimized builds the type-specialised iterator engine.
func NewOptimized() *Engine { return &Engine{mode: Optimized} }

// Name identifies the engine in experiment output.
func (e *Engine) Name() string { return e.mode.String() }

// Execute runs the plan and materialises the result.
func (e *Engine) Execute(p *plan.Plan) (*storage.Table, error) {
	joinOut := make([][]Row, len(p.Joins))

	resolveRows := func(ref plan.InputRef) ([]Row, *types.Schema, error) {
		if ref.Base >= 0 {
			t := p.Tables[ref.Base].Entry.Table
			rows, err := Drain(NewScan(t))
			return rows, t.Schema(), err
		}
		if ref.Join < 0 || ref.Join >= len(joinOut) || joinOut[ref.Join] == nil {
			return nil, nil, fmt.Errorf("volcano: dangling input %v", ref)
		}
		return joinOut[ref.Join], p.Joins[ref.Join].Schema, nil
	}

	tr := p.Trace
	for ji, j := range p.Joins {
		rows, err := e.runJoin(tr, ji, j, resolveRows)
		if err != nil {
			return nil, err
		}
		joinOut[ji] = rows
	}

	var result []Row
	var schema *types.Schema
	var t0 time.Time
	switch {
	case p.Agg != nil:
		rows, err := e.runAgg(tr, p.Agg, resolveRows)
		if err != nil {
			return nil, err
		}
		result, schema = rows, p.Agg.Schema
	case p.Final != nil:
		if tr != nil {
			t0 = time.Now()
		}
		in, _, err := resolveRows(p.Final.Input)
		if err != nil {
			return nil, err
		}
		it := e.stageIterator(p.Final, NewSlice(in))
		rows, err := Drain(it)
		if err != nil {
			return nil, err
		}
		result, schema = rows, p.Final.Schema
		if tr != nil {
			tr.Observe(plan.TraceStageProject, int64(len(in)), int64(len(rows)), time.Since(t0))
		}
	default:
		return nil, fmt.Errorf("volcano: empty plan")
	}

	if len(p.Having) > 0 {
		kept := result[:0:0]
		for _, r := range result {
			ok := true
			for _, h := range p.Having {
				if !h.Op.Holds(types.Compare(r[h.Col], h.Val)) {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, r)
			}
		}
		result = kept
	}

	if p.Sort != nil {
		if tr != nil {
			t0 = time.Now()
		}
		it := NewSort(NewSlice(result), sortLess(e.mode, p.Sort.Keys))
		var err error
		result, err = Drain(it)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			n := int64(len(result))
			tr.Observe(plan.TraceStageSort, n, n, time.Since(t0))
		}
	}
	if p.Limit >= 0 && len(result) > p.Limit {
		result = result[:p.Limit]
	}

	out := storage.NewTable("result", schema)
	for _, r := range result {
		out.AppendRow(r...)
	}
	return out, nil
}

// stageIterator wraps an input with the stage's filter and projection.
func (e *Engine) stageIterator(st *plan.Stage, in Iterator) Iterator {
	it := in
	if pred := compilePredicates(e.mode, st.Filters); pred != nil {
		it = NewFilter(it, pred)
	}
	return NewProject(it, compileProjection(e.mode, st.Cols))
}

// runJoin evaluates a join descriptor with iterators. Multi-input (team)
// descriptors cascade into binary merge joins — the iterator engine has no
// team evaluation, which is exactly the gap Figure 7(b) measures.
func (e *Engine) runJoin(tr *plan.Trace, ji int, j *plan.Join, resolve func(plan.InputRef) ([]Row, *types.Schema, error)) ([]Row, error) {
	k := len(j.Inputs)
	staged := make([][]Row, k)
	var inRows, stagedOut []int64
	var stageEl []time.Duration
	var t0, tj time.Time
	if tr != nil {
		inRows = make([]int64, k)
		stagedOut = make([]int64, k)
		stageEl = make([]time.Duration, k)
	}
	for i := range j.Inputs {
		if tr != nil {
			t0 = time.Now()
		}
		in, _, err := resolve(j.Inputs[i].Input)
		if err != nil {
			return nil, err
		}
		rows, err := Drain(e.stageIterator(&j.Inputs[i], NewSlice(in)))
		if err != nil {
			return nil, err
		}
		staged[i] = rows
		if tr != nil {
			inRows[i] = int64(len(in))
			stageEl[i] = time.Since(t0)
		}
	}
	if tr != nil {
		tj = time.Now()
	}

	// Column block offset of each input in the concatenated row.
	offsets := make([]int, k)
	for i := 1; i < k; i++ {
		offsets[i] = offsets[i-1] + len(j.Inputs[i-1].Cols)
	}

	// ord accumulates the time spent partitioning and sorting the staged
	// inputs (the trace's join[J].order); the join loop's time excludes it.
	var ord time.Duration
	var joined []Row
	switch j.Alg {
	case plan.MergeJoin:
		if tr != nil {
			for i := range staged {
				stagedOut[i] = int64(len(staged[i]))
			}
		}
		rows, err := e.cascadeMerge(j, staged, offsets, tr, &ord)
		if err != nil {
			return nil, err
		}
		joined = rows

	case plan.FinePartitionJoin, plan.HybridJoin:
		// Partition every input identically, then join partition-wise.
		m := partitionCountOf(j)
		parts := make([][][]Row, k)
		var tp time.Time
		if tr != nil {
			tp = time.Now()
		}
		for i := range staged {
			p, err := e.partitionRows(staged[i], &j.Inputs[i], j.Keys[i], m)
			if err != nil {
				return nil, err
			}
			parts[i] = p
			if tr != nil {
				// Staged row count is post-routing: a fine partition's value
				// directory may drop tuples, and the other engines count
				// after that drop.
				for pi := range p {
					stagedOut[i] += int64(len(p[pi]))
				}
			}
		}
		if tr != nil {
			ord += time.Since(tp)
		}
		for pi := 0; pi < m; pi++ {
			slice := make([][]Row, k)
			empty := false
			for i := range parts {
				slice[i] = parts[i][pi]
				if len(slice[i]) == 0 {
					empty = true
					break
				}
			}
			if empty {
				continue
			}
			if j.Alg == plan.FinePartitionJoin {
				joined = appendCartesian(joined, slice, offsets)
				continue
			}
			rows, err := e.cascadeMerge(j, slice, offsets, tr, &ord)
			if err != nil {
				return nil, err
			}
			joined = append(joined, rows...)
		}
	}

	// Final projection onto the join's output schema.
	out := make([]Row, len(joined))
	for r, row := range joined {
		res := make(Row, len(j.Out))
		for pos, o := range j.Out {
			res[pos] = row[offsets[o.Input]+o.Col]
		}
		out[r] = res
	}
	if tr != nil {
		var sum int64
		for i := range stagedOut {
			tr.Observe(plan.TraceJoinStage(ji, i), inRows[i], stagedOut[i], stageEl[i])
			sum += stagedOut[i]
		}
		tr.Observe(plan.TraceJoinOrder(ji), sum, sum, ord)
		tr.Observe(plan.TraceJoin(ji), sum, int64(len(out)), time.Since(tj)-ord)
	}
	return out, nil
}

func partitionCountOf(j *plan.Join) int {
	for i := range j.Inputs {
		switch j.Inputs[i].Action {
		case plan.StagePartitionCoarse:
			return j.Inputs[i].Partitions
		case plan.StagePartitionFine:
			return j.Inputs[i].FineValues.Len()
		}
	}
	return 1
}

// partitionRows splits staged rows into m buckets per the stage action.
func (e *Engine) partitionRows(rows []Row, st *plan.Stage, key, m int) ([][]Row, error) {
	out := make([][]Row, m)
	if len(rows) > 0 && key >= len(rows[0]) {
		// Group-less aggregates stage attribute-free rows: no key to
		// partition on, everything lands in bucket 0.
		out[0] = rows
		return out, nil
	}
	switch st.Action {
	case plan.StagePartitionFine:
		for _, r := range rows {
			if p := st.FineValues.Index(r[key]); p >= 0 {
				out[p] = append(out[p], r)
			}
		}
	case plan.StagePartitionCoarse:
		mask := uint64(m - 1)
		for _, r := range rows {
			out[hashRowKey(r[key])&mask] = append(out[hashRowKey(r[key])&mask], r)
		}
	default:
		if m != 1 {
			return nil, fmt.Errorf("volcano: unpartitioned stage feeding %d partitions", m)
		}
		out[0] = rows
	}
	return out, nil
}

func hashRowKey(d types.Datum) uint64 {
	if d.Kind == types.String {
		h := uint64(14695981039346656037)
		for i := 0; i < len(d.S); i++ {
			h ^= uint64(d.S[i])
			h *= 1099511628211
		}
		return h
	}
	x := uint64(d.I) * 0x9E3779B97F4A7C15
	return x ^ (x >> 29)
}

// cascadeMerge runs the k-input join as a left-deep cascade of binary
// merge joins over key-sorted streams; the intermediate stays sorted on
// the shared key so later merges need no re-sort. On a traced execution
// the time the sorts take adds to *ord.
func (e *Engine) cascadeMerge(j *plan.Join, staged [][]Row, offsets []int, tr *plan.Trace, ord *time.Duration) ([]Row, error) {
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	// Sort each input on its key.
	sorted := make([][]Row, len(staged))
	for i := range staged {
		it := NewSort(NewSlice(staged[i]), keyLess(e.mode, []int{j.Keys[i]}))
		rows, err := Drain(it)
		if err != nil {
			return nil, err
		}
		sorted[i] = rows
	}
	if tr != nil {
		*ord += time.Since(t0)
	}
	cur := sorted[0]
	curKey := j.Keys[0]
	for i := 1; i < len(sorted); i++ {
		rightKey := j.Keys[i]
		cmp := keyCompare(e.mode, []int{curKey}, []int{rightKey})
		sameLeft := keyCompare(e.mode, []int{curKey}, []int{curKey})
		combine := func(l, r Row) Row {
			out := make(Row, len(l)+len(r))
			copy(out, l)
			copy(out[len(l):], r)
			return out
		}
		it := NewMergeJoin(NewSlice(cur), NewSlice(sorted[i]),
			cmp,
			func(a, b Row) bool { return sameLeft(a, b) == 0 },
			combine)
		rows, err := Drain(it)
		if err != nil {
			return nil, err
		}
		cur = rows
		// curKey position unchanged: the key column of input 0 stays at
		// its offset in the concatenated row.
	}
	return cur, nil
}

// appendCartesian emits the cross product of per-input row sets (fine
// partition join: all tuples in corresponding partitions match).
func appendCartesian(dst []Row, parts [][]Row, offsets []int) []Row {
	total := len(offsets[len(offsets)-1:])
	_ = total
	cur := make([]Row, len(parts))
	var rec func(depth int)
	rec = func(depth int) {
		if depth == len(parts) {
			width := 0
			for _, r := range cur {
				width += len(r)
			}
			row := make(Row, 0, width)
			for _, r := range cur {
				row = append(row, r...)
			}
			dst = append(dst, row)
			return
		}
		for _, r := range parts[depth] {
			cur[depth] = r
			rec(depth + 1)
		}
	}
	rec(0)
	return dst
}

// runAgg evaluates the aggregation operator.
func (e *Engine) runAgg(tr *plan.Trace, a *plan.Agg, resolve func(plan.InputRef) ([]Row, *types.Schema, error)) ([]Row, error) {
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	in, _, err := resolve(a.Input.Input)
	if err != nil {
		return nil, err
	}
	rows, err := e.aggRows(a, in)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.Observe(plan.TraceStageAgg, int64(len(in)), int64(len(rows)), time.Since(t0))
	}
	return rows, nil
}

// aggRows evaluates the aggregation algorithm over the resolved input.
func (e *Engine) aggRows(a *plan.Agg, in []Row) ([]Row, error) {
	staged := e.stageIterator(&a.Input, NewSlice(in))

	switch a.Alg {
	case plan.MapAggregation:
		it, err := NewMapAgg(staged, a)
		if err != nil {
			return nil, err
		}
		return Drain(it)

	case plan.SortAggregation:
		sorted := NewSort(staged, keyLess(e.mode, a.GroupCols))
		return Drain(NewSortAgg(sorted, a, e.mode))

	case plan.HybridAggregation:
		rows, err := Drain(staged)
		if err != nil {
			return nil, err
		}
		m := a.Input.Partitions
		if m <= 0 {
			m = 1
		}
		key := a.Input.PartitionKey
		parts := make([][]Row, m)
		mask := uint64(m - 1)
		for _, r := range rows {
			p := 0
			if key < len(r) { // group-less aggregates stage empty rows
				p = int(hashRowKey(r[key]) & mask)
			}
			parts[p] = append(parts[p], r)
		}
		var out []Row
		for _, part := range parts {
			if len(part) == 0 {
				continue
			}
			sorted := NewSort(NewSlice(part), keyLess(e.mode, a.GroupCols))
			rows, err := Drain(NewSortAgg(sorted, a, e.mode))
			if err != nil {
				return nil, err
			}
			out = append(out, rows...)
		}
		return out, nil
	}
	return nil, fmt.Errorf("volcano: unknown aggregation %v", a.Alg)
}
