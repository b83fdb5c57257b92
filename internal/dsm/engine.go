package dsm

import (
	"fmt"
	"math"
	"sort"
	"time"

	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/types"
)

// Execute runs a plan operator-at-a-time over column vectors, materialising
// every intermediate (the MonetDB execution discipline the paper describes
// in §III).
func (e *Engine) Execute(p *plan.Plan) (*storage.Table, error) {
	joinOut := make([]*colTable, len(p.Joins))
	resolve := func(ref plan.InputRef) (*colTable, error) {
		if ref.Base >= 0 {
			return e.decompose(p.Tables[ref.Base].Entry.Table), nil
		}
		if ref.Join < 0 || ref.Join >= len(joinOut) || joinOut[ref.Join] == nil {
			return nil, fmt.Errorf("dsm: dangling input %v", ref)
		}
		return joinOut[ref.Join], nil
	}

	tr := p.Trace
	// inRowsOf reports an operator input's cardinality for trace
	// rows-in without re-materialising the input.
	inRowsOf := func(ref plan.InputRef) int64 {
		if ref.Base >= 0 {
			return int64(p.Tables[ref.Base].Entry.Table.NumRows())
		}
		if ref.Join >= 0 && ref.Join < len(joinOut) && joinOut[ref.Join] != nil {
			return int64(joinOut[ref.Join].rows)
		}
		return 0
	}

	var t0 time.Time
	for ji, j := range p.Joins {
		out, err := e.runJoin(tr, ji, j, resolve, inRowsOf)
		if err != nil {
			return nil, err
		}
		joinOut[ji] = out
	}

	var result *colTable
	var err error
	switch {
	case p.Agg != nil:
		if tr != nil {
			t0 = time.Now()
		}
		result, err = e.runAgg(p.Agg, resolve)
		if tr != nil && err == nil {
			tr.Observe(plan.TraceStageAgg,
				inRowsOf(p.Agg.Input.Input), int64(result.rows), time.Since(t0))
		}
	case p.Final != nil:
		if tr != nil {
			t0 = time.Now()
		}
		result, err = e.runStage(p.Final, resolve)
		if tr != nil && err == nil {
			tr.Observe(plan.TraceStageProject,
				inRowsOf(p.Final.Input), int64(result.rows), time.Since(t0))
		}
	default:
		return nil, fmt.Errorf("dsm: empty plan")
	}
	if err != nil {
		return nil, err
	}

	order := identityOrder(result.rows)
	if p.Sort != nil {
		if tr != nil {
			t0 = time.Now()
		}
		order = sortOrder(result, p.Sort.Keys)
		if tr != nil {
			n := int64(len(order))
			tr.Observe(plan.TraceStageSort, n, n, time.Since(t0))
		}
	}
	// HAVING filters the order vector: sortOrder is stable, so filtering
	// after the sort keeps exactly the rows (and row order) that filtering
	// before it would have produced, and LIMIT below truncates the
	// surviving groups only.
	if len(p.Having) > 0 {
		kept := order[:0:0]
		for _, r := range order {
			ok := true
			for _, h := range p.Having {
				col := result.cols[h.Col]
				var c int
				switch col.kind {
				case types.Float:
					c = compareFloat(col.fls[r], h.Val.F)
				case types.String:
					c = compareString(col.strs[r], h.Val.S)
				default:
					c = compareInt(col.ints[r], h.Val.I)
				}
				if !h.Op.Holds(c) {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, r)
			}
		}
		order = kept
	}
	if p.Limit >= 0 && len(order) > p.Limit {
		order = order[:p.Limit]
	}
	return materialise(result, order, p.ResultSchema()), nil
}

// runStage applies a stage's filters and projection column-at-a-time.
func (e *Engine) runStage(st *plan.Stage, resolve func(plan.InputRef) (*colTable, error)) (*colTable, error) {
	in, err := resolve(st.Input)
	if err != nil {
		return nil, err
	}
	// Selection: one primitive per predicate, materialising the
	// candidate vector between primitives.
	var sel []int32
	for i, f := range st.Filters {
		if slot, ok := f.Slot(); ok {
			return nil, fmt.Errorf("dsm: filter reads unbound parameter $%d (bind the plan before execution)", slot)
		}
		sel = selectVector(in.cols[f.Col], f.Op, f.Val, selOrAll(sel, i == 0))
	}
	if len(st.Filters) == 0 {
		sel = allRows(in.rows)
	}

	// Projection: gather the needed columns only (the DSM advantage the
	// paper highlights for TPC-H).
	gathered := &colTable{rows: len(sel)}
	for _, c := range st.Cols {
		if c.Source >= 0 && c.Compute == nil {
			gathered.cols = append(gathered.cols, gather(in.cols[c.Source], sel))
			gathered.names = append(gathered.names, c.Name)
		} else {
			gathered.cols = append(gathered.cols, nil) // computed below
			gathered.names = append(gathered.names, c.Name)
		}
	}
	// Computed columns operate over gathered inputs: build a temporary
	// table exposing the source columns at their original indexes.
	srcView := &colTable{rows: len(sel), cols: make([]*column, len(in.cols))}
	for i := range in.cols {
		srcView.cols[i] = gather(in.cols[i], sel)
	}
	for i, c := range st.Cols {
		if c.Compute != nil {
			gathered.cols[i] = computeColumn(c.Compute, srcView)
		}
	}
	return gathered, nil
}

func selOrAll(sel []int32, first bool) []int32 {
	if first {
		return nil
	}
	return sel
}

func allRows(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// runJoin evaluates joins as hash joins over key columns, cascading for
// multi-input descriptors. The build side is the smaller input.
func (e *Engine) runJoin(tr *plan.Trace, ji int, j *plan.Join, resolve func(plan.InputRef) (*colTable, error), inRowsOf func(plan.InputRef) int64) (*colTable, error) {
	k := len(j.Inputs)
	staged := make([]*colTable, k)
	var stagedSum int64
	var t0, tj time.Time
	for i := range j.Inputs {
		if tr != nil {
			t0 = time.Now()
		}
		ct, err := e.runStage(&j.Inputs[i], resolve)
		if err != nil {
			return nil, err
		}
		staged[i] = ct
		if tr != nil {
			tr.Observe(plan.TraceJoinStage(ji, i),
				inRowsOf(j.Inputs[i].Input), int64(ct.rows), time.Since(t0))
			stagedSum += int64(ct.rows)
		}
	}
	if tr != nil {
		tj = time.Now()
	}

	// Cascade: join input 0 with 1, then with 2, ... All keys are in one
	// equivalence class for multi-input descriptors.
	cur := staged[0]
	curKey := j.Keys[0]
	offsets := make([]int, k)
	for i := 1; i < k; i++ {
		offsets[i] = offsets[i-1] + len(staged[i-1].cols)
	}
	for i := 1; i < k; i++ {
		joined, err := hashJoin(cur, curKey, staged[i], j.Keys[i])
		if err != nil {
			return nil, err
		}
		cur = joined
	}

	// Output projection per descriptor mapping.
	out := &colTable{rows: cur.rows}
	for _, o := range j.Out {
		out.cols = append(out.cols, cur.cols[offsets[o.Input]+o.Col])
		out.names = append(out.names, j.Inputs[o.Input].Schema.Column(o.Col).Name)
	}
	if tr != nil {
		// A hash join orders nothing: its order stage is empty.
		tr.Observe(plan.TraceJoinOrder(ji), stagedSum, stagedSum, 0)
		tr.Observe(plan.TraceJoin(ji), stagedSum, int64(out.rows), time.Since(tj))
	}
	return out, nil
}

// hashJoin joins two column tables on integer or string keys, returning
// the concatenated column set.
func hashJoin(left *colTable, lk int, right *colTable, rk int) (*colTable, error) {
	var li, ri []int32
	lcol, rcol := left.cols[lk], right.cols[rk]
	switch lcol.kind {
	case types.String:
		build := make(map[string][]int32, right.rows)
		for i, v := range rcol.strs {
			build[v] = append(build[v], int32(i))
		}
		for i, v := range lcol.strs {
			for _, r := range build[v] {
				li = append(li, int32(i))
				ri = append(ri, r)
			}
		}
	default:
		build := make(map[int64][]int32, right.rows)
		for i, v := range rcol.keys() {
			build[v] = append(build[v], int32(i))
		}
		for i, v := range lcol.keys() {
			for _, r := range build[v] {
				li = append(li, int32(i))
				ri = append(ri, r)
			}
		}
	}

	out := &colTable{rows: len(li)}
	for i, c := range left.cols {
		out.cols = append(out.cols, gather(c, li))
		out.names = append(out.names, left.names[i])
	}
	for i, c := range right.cols {
		out.cols = append(out.cols, gather(c, ri))
		out.names = append(out.names, right.names[i])
	}
	return out, nil
}

// runAgg evaluates aggregation: group ids first (one pass), then one
// array pass per aggregate — the array-computation style of §III.
func (e *Engine) runAgg(a *plan.Agg, resolve func(plan.InputRef) (*colTable, error)) (*colTable, error) {
	in, err := e.runStage(&a.Input, resolve)
	if err != nil {
		return nil, err
	}

	// Pass 1: assign group ids.
	gids := make([]int32, in.rows)
	var nGroups int
	// Numeric group columns are keyed as join keys are (column.keys), so
	// -0 and +0 fall into one group.
	keys := make([][]int64, len(a.GroupCols))
	for k, g := range a.GroupCols {
		if in.cols[g].kind != types.String {
			keys[k] = in.cols[g].keys()
		}
	}
	if len(a.GroupCols) == 1 && keys[0] != nil {
		m := make(map[int64]int32, 1024)
		for i, v := range keys[0] {
			id, ok := m[v]
			if !ok {
				id = int32(len(m))
				m[v] = id
			}
			gids[i] = id
		}
		nGroups = len(m)
	} else {
		m := make(map[string]int32, 1024)
		keyBuf := make([]byte, 0, 64)
		for i := 0; i < in.rows; i++ {
			keyBuf = keyBuf[:0]
			for k, g := range a.GroupCols {
				if keys[k] != nil {
					keyBuf = appendIntKey(keyBuf, keys[k][i])
				} else {
					keyBuf = append(keyBuf, in.cols[g].strs[i]...)
				}
				keyBuf = append(keyBuf, 0)
			}
			id, ok := m[string(keyBuf)]
			if !ok {
				id = int32(len(m))
				m[string(keyBuf)] = id
			}
			gids[i] = id
		}
		nGroups = len(m)
	}

	// Group representative row (first occurrence) for group columns.
	rep := make([]int32, nGroups)
	seen := make([]bool, nGroups)
	for i, g := range gids {
		if !seen[g] {
			seen[g] = true
			rep[g] = int32(i)
		}
	}

	// Pass 2..n: one array computation per aggregate.
	out := &colTable{rows: nGroups}
	for pos, ref := range a.Output {
		name := a.Schema.Column(pos).Name
		if !ref.IsAgg {
			src := in.cols[a.GroupCols[ref.Index]]
			out.cols = append(out.cols, gather(src, rep))
			out.names = append(out.names, name)
			continue
		}
		spec := &a.Aggs[ref.Index]
		out.cols = append(out.cols, aggregateColumn(spec, in, gids, nGroups))
		out.names = append(out.names, name)
	}
	return out, nil
}

func appendIntKey(b []byte, v int64) []byte {
	for i := 0; i < 8; i++ {
		b = append(b, byte(v>>(8*i)))
	}
	return b
}

// aggregateColumn computes one aggregate as an array pass over the input
// column, scattering into per-group slots.
func aggregateColumn(spec *plan.AggSpec, in *colTable, gids []int32, nGroups int) *column {
	switch spec.Func {
	case sql.AggCount:
		out := &column{kind: types.Int, size: 8, ints: make([]int64, nGroups)}
		if spec.Star || spec.Col < 0 {
			for _, g := range gids {
				out.ints[g]++
			}
			return out
		}
		for _, g := range gids {
			out.ints[g]++
		}
		return out

	case sql.AggSum:
		col := in.cols[spec.Col]
		if col.kind == types.Float {
			out := &column{kind: types.Float, size: 8, fls: make([]float64, nGroups)}
			for i, v := range col.fls {
				out.fls[gids[i]] += v
			}
			return out
		}
		out := &column{kind: types.Int, size: 8, ints: make([]int64, nGroups)}
		for i, v := range col.ints {
			out.ints[gids[i]] += v
		}
		return out

	case sql.AggAvg:
		col := in.cols[spec.Col]
		sums := make([]float64, nGroups)
		counts := make([]int64, nGroups)
		if col.kind == types.Float {
			for i, v := range col.fls {
				sums[gids[i]] += v
				counts[gids[i]]++
			}
		} else {
			for i, v := range col.ints {
				sums[gids[i]] += float64(v)
				counts[gids[i]]++
			}
		}
		out := &column{kind: types.Float, size: 8, fls: make([]float64, nGroups)}
		for g := range sums {
			if counts[g] > 0 {
				out.fls[g] = sums[g] / float64(counts[g])
			}
		}
		return out

	case sql.AggMin, sql.AggMax:
		col := in.cols[spec.Col]
		isMin := spec.Func == sql.AggMin
		if col.kind == types.Float {
			out := &column{kind: types.Float, size: 8, fls: make([]float64, nGroups)}
			init := math.Inf(1)
			if !isMin {
				init = math.Inf(-1)
			}
			for g := range out.fls {
				out.fls[g] = init
			}
			for i, v := range col.fls {
				g := gids[i]
				if (isMin && v < out.fls[g]) || (!isMin && v > out.fls[g]) {
					out.fls[g] = v
				}
			}
			return out
		}
		out := &column{kind: types.Int, size: 8, ints: make([]int64, nGroups)}
		init := int64(math.MaxInt64)
		if !isMin {
			init = math.MinInt64
		}
		for g := range out.ints {
			out.ints[g] = init
		}
		for i, v := range col.ints {
			g := gids[i]
			if (isMin && v < out.ints[g]) || (!isMin && v > out.ints[g]) {
				out.ints[g] = v
			}
		}
		return out
	}
	panic(fmt.Sprintf("dsm: unsupported aggregate %v", spec.Func))
}

func identityOrder(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// sortOrder returns row positions ordered by the sort keys.
func sortOrder(ct *colTable, keys []plan.SortKey) []int32 {
	order := identityOrder(ct.rows)
	sort.SliceStable(order, func(x, y int) bool {
		a, b := order[x], order[y]
		for _, k := range keys {
			col := ct.cols[k.Col]
			var c int
			switch col.kind {
			case types.Float:
				c = compareFloat(col.fls[a], col.fls[b])
			case types.String:
				c = compareString(col.strs[a], col.strs[b])
			default:
				c = compareInt(col.ints[a], col.ints[b])
			}
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return order
}

// materialise converts the column table back to an NSM result table in the
// given row order.
func materialise(ct *colTable, order []int32, schema *types.Schema) *storage.Table {
	out := storage.NewTable("result", schema)
	buf := make([]byte, schema.TupleSize())
	for _, r := range order {
		for i, col := range ct.cols {
			off := schema.Offset(i)
			switch col.kind {
			case types.Float:
				types.PutFloat(buf, off, col.fls[r])
			case types.String:
				types.PutString(buf, off, schema.Column(i).Size, col.strs[r])
			default:
				types.PutInt(buf, off, col.ints[r])
			}
		}
		out.Append(buf)
	}
	return out
}
