package core

import (
	"fmt"
	"time"

	"hique/internal/plan"
	"hique/internal/storage"
	"hique/internal/types"
)

// Engine is the holistic query engine: it walks the optimizer's operator
// descriptor list in order — joins first, then aggregation, then sorting
// (§IV) — instantiating and running the specialised template for each
// operator, and materialising intermediate results as temporary tables
// between operators (§V-C).
type Engine struct{}

// NewEngine creates a holistic engine.
func NewEngine() *Engine { return &Engine{} }

// Name identifies the engine in experiment output.
func (e *Engine) Name() string { return "HIQUE" }

// Execute runs the plan to completion and returns the result table.
func (e *Engine) Execute(p *plan.Plan) (*storage.Table, error) {
	joinOut, err := RunJoins(p, len(p.Joins))
	if err != nil {
		return nil, err
	}
	tr := p.Trace
	var t0 time.Time

	var result *storage.Table
	// resultOwned marks a result the caller may Release: it was
	// materialised from the arena by this execution and aliases no base
	// table or join output.
	resultOwned := false
	switch {
	case p.Agg != nil:
		if tr != nil {
			t0 = time.Now()
		}
		in, err := stageInput(p, joinOut, &p.Agg.Input)
		if err != nil {
			return nil, err
		}
		aggIn := int64(in.NumRows())
		if p.Agg.Alg == plan.MapAggregation {
			result, err = RunMapAgg(p.Agg, in)
		} else {
			var staged *Staged
			staged, err = RunStage(&p.Agg.Input, in)
			if err != nil {
				return nil, err
			}
			aggIn = int64(staged.Rows())
			result, err = RunSortedAgg(p.Agg, staged)
			staged.Release()
		}
		if err != nil {
			return nil, err
		}
		if tr != nil {
			tr.Observe(plan.TraceStageAgg, aggIn, int64(result.NumRows()), time.Since(t0))
		}
	case p.Final != nil:
		if tr != nil {
			t0 = time.Now()
		}
		in, err := stageInput(p, joinOut, p.Final)
		if err != nil {
			return nil, err
		}
		staged, err := RunStage(p.Final, in)
		if err != nil {
			return nil, err
		}
		result = staged.Parts[0]
		resultOwned = staged.Owned
		if tr != nil {
			tr.Observe(plan.TraceStageProject,
				int64(in.NumRows()), int64(result.NumRows()), time.Since(t0))
		}
	default:
		return nil, fmt.Errorf("core: plan has neither aggregation nor final projection")
	}

	result, resultOwned = applyHaving(p, result, resultOwned)
	var cmp Compare
	if p.Sort != nil {
		cmp = MakeSortCompare(result.Schema(), p.Sort.Keys)
	}
	return FinishResult(p, cmp, result, resultOwned), nil
}

// stageInput resolves a stage's input — a base table, or an earlier
// join's output in joinOut — fetching through the fractal B+-tree when
// the planner marked the stage for index access.
func stageInput(p *plan.Plan, joinOut []*storage.Table, st *plan.Stage) (*storage.Table, error) {
	ref := st.Input
	if ref.Base >= 0 {
		return ApplyIndexScan(p, st, p.Tables[ref.Base].Entry.Table)
	}
	if ref.Join < 0 || ref.Join >= len(joinOut) || joinOut[ref.Join] == nil {
		return nil, fmt.Errorf("core: dangling input reference %v", ref)
	}
	return joinOut[ref.Join], nil
}

// RunJoins runs the plan's first n join descriptors in order — stage
// each input, join, release the staged inputs — and returns their
// materialised outputs. The general walk runs them all; a fused chain
// runs its prefix through here, so its intermediates are the walk's own.
func RunJoins(p *plan.Plan, n int) ([]*storage.Table, error) {
	joinOut := make([]*storage.Table, n)
	tr := p.Trace
	var t0 time.Time
	for ji, j := range p.Joins[:n] {
		staged := make([]*Staged, len(j.Inputs))
		stagedRows := int64(0)
		for i := range j.Inputs {
			if tr != nil {
				t0 = time.Now()
			}
			in, err := stageInput(p, joinOut, &j.Inputs[i])
			if err != nil {
				releaseAll(staged)
				return nil, err
			}
			s, err := RunStage(&j.Inputs[i], in)
			if err != nil {
				releaseAll(staged)
				return nil, err
			}
			staged[i] = s
			if tr != nil {
				tr.Observe(plan.TraceJoinStage(ji, i),
					int64(in.NumRows()), int64(s.Rows()), time.Since(t0))
				stagedRows += int64(s.Rows())
			}
		}
		if tr != nil {
			t0 = time.Now()
		}
		out, err := RunJoin(j, staged)
		// Join outputs copy every emitted tuple, so the staged inputs
		// return to the page arena as soon as the join has drained them.
		releaseAll(staged)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			tr.Observe(plan.TraceJoin(ji), stagedRows, int64(out.NumRows()), time.Since(t0))
		}
		joinOut[ji] = out
	}
	return joinOut, nil
}

// applyHaving filters aggregated groups against the plan's HAVING
// conjunction, between aggregation and the final sort, exactly where the
// other engines apply it. The filtered copy draws from the arena; the
// replaced result is released when this execution owned it.
func applyHaving(p *plan.Plan, result *storage.Table, owned bool) (*storage.Table, bool) {
	if len(p.Having) == 0 {
		return result, owned
	}
	s := result.Schema()
	out := storage.NewPooledTable("result", s)
	result.Scan(func(t []byte) bool {
		for _, h := range p.Having {
			if !h.Op.Holds(types.Compare(s.GetDatum(t, h.Col), h.Val)) {
				return true
			}
		}
		out.Append(t)
		return true
	})
	if owned {
		result.Release()
	}
	return out, true
}

// FinishResult applies the final-ordering and LIMIT tail the general walk
// and the fused pipelines share: sort by cmp (the compiled ORDER BY, nil
// when the plan has none) into a pooled copy, truncate to the limit, and
// release each replaced result the execution owned.
func FinishResult(p *plan.Plan, cmp Compare, result *storage.Table, owned bool) *storage.Table {
	if cmp != nil {
		var t0 time.Time
		if p.Trace != nil {
			t0 = time.Now()
		}
		sorted := SortTablePooled("result", result, cmp)
		if owned {
			result.Release()
		}
		result, owned = sorted, true
		if p.Trace != nil {
			n := int64(result.NumRows())
			p.Trace.Observe(plan.TraceStageSort, n, n, time.Since(t0))
		}
	}
	if p.Limit >= 0 && result.NumRows() > p.Limit {
		truncated := storage.NewPooledTable("result", result.Schema())
		n := 0
		result.Scan(func(t []byte) bool {
			if n >= p.Limit {
				return false
			}
			truncated.Append(t)
			n++
			return true
		})
		if owned {
			result.Release()
		}
		result = truncated
	}
	return result
}

// releaseAll returns every owned staged input to the page arena.
func releaseAll(staged []*Staged) {
	for _, s := range staged {
		s.Release()
	}
}

// ApplyIndexScan reduces a stage's input to the tuples matching its index
// predicate, fetched through the fractal B+-tree (paper §IV). The matching
// filter stays in the stage, so re-evaluation keeps the path safe even if
// the index is stale; non-index engines simply scan.
func ApplyIndexScan(p *plan.Plan, st *plan.Stage, in *storage.Table) (*storage.Table, error) {
	if st.IndexScan == nil || st.Input.Base < 0 {
		return in, nil
	}
	if slot, ok := st.IndexScan.Slot(); ok {
		return nil, fmt.Errorf("core: index scan reads unbound parameter $%d (bind the plan before execution)", slot)
	}
	entry := p.Tables[st.Input.Base].Entry
	idx := entry.Index(st.IndexScan.Column)
	if idx == nil {
		return in, nil // index dropped since planning: fall back to scan
	}
	out := storage.NewTable(in.Name()+"_idx", in.Schema())
	for _, rid := range idx.Search(st.IndexScan.Value.I) {
		if int(rid.Page) >= in.NumPages() {
			continue
		}
		page := in.Page(int(rid.Page))
		if int(rid.Slot) >= page.NumTuples() {
			continue
		}
		out.Append(page.Tuple(int(rid.Slot)))
	}
	return out, nil
}
