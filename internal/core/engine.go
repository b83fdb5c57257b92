package core

import (
	"fmt"
	"time"

	"hique/internal/btree"
	"hique/internal/plan"
	"hique/internal/storage"
	"hique/internal/types"
)

// Engine is the holistic query engine: it walks the optimizer's operator
// descriptor list in order — joins first, then aggregation, then sorting
// (§IV) — instantiating and running the specialised template for each
// operator, and materialising intermediate results as temporary tables
// between operators (§V-C). Every operator runs the kernels the fused
// pipelines run: the staging step, the bucketing, the join loop and the
// aggregation program.
type Engine struct{}

// NewEngine creates a holistic engine.
func NewEngine() *Engine { return &Engine{} }

// Name identifies the engine in experiment output.
func (e *Engine) Name() string { return "HIQUE" }

// Execute runs a bound plan to completion and returns the result table.
func (e *Engine) Execute(p *plan.Plan) (*storage.Table, error) {
	if err := p.CheckArgs(nil); err != nil {
		return nil, fmt.Errorf("core: bind the plan before execution: %w", err)
	}
	joinOut, err := runJoins(p)
	if err != nil {
		return nil, err
	}
	tr := p.Trace
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	var result *storage.Table
	// resultOwned marks a result the caller may Release: it was
	// materialised from the arena by this execution and aliases no base
	// table or join output.
	resultOwned := false
	switch {
	case p.Agg != nil:
		var aggIn int
		if result, aggIn, err = runAgg(p, joinOut); err != nil {
			return nil, err
		}
		if tr != nil {
			tr.Observe(plan.TraceStageAgg, int64(aggIn), int64(result.NumRows()), time.Since(t0))
		}
	case p.Final != nil:
		in, tree, err := stageInput(p, joinOut, p.Final)
		if err != nil {
			return nil, err
		}
		inRows := in.NumRows()
		if p.Final.IsIdentity(in.Schema()) {
			// Identity elision: the projection would be a tuple-by-tuple
			// copy, so the input itself is the result.
			result = in
		} else {
			var sg *staged
			if sg, inRows, err = stage(p.Final, in, tree); err != nil {
				return nil, err
			}
			result, resultOwned = storage.NewPooledTable("result", p.Final.Schema), true
			for _, t := range sg.order()[0] {
				result.Append(t)
			}
		}
		if tr != nil {
			tr.Observe(plan.TraceStageProject, int64(inRows), int64(result.NumRows()), time.Since(t0))
		}
	default:
		return nil, fmt.Errorf("core: plan has neither aggregation nor final projection")
	}
	var order *Key
	if p.Sort != nil {
		k := CompileOrder(result.Schema(), p.Sort.Keys)
		order = &k
	}
	return FinishResult(p, order, result, resultOwned), nil
}

// runAgg evaluates the plan's aggregation over its input: map aggregation
// folds the raw input in one pass, sort and hybrid aggregation stream the
// staged, group-ordered parts. It also returns the row count the trace
// reports going in: the input's under map aggregation, the staged parts'
// otherwise.
func runAgg(p *plan.Plan, joinOut []*storage.Table) (*storage.Table, int, error) {
	a := p.Agg
	mapped := a.Alg == plan.MapAggregation
	if mapped && len(a.Directories) != len(a.GroupCols) {
		return nil, 0, fmt.Errorf("core: map aggregation needs one directory per grouping attribute")
	}
	in, tree, err := stageInput(p, joinOut, &a.Input)
	if err != nil {
		return nil, 0, err
	}
	prog := CompileAgg(a, in.Schema(), nil)
	out := storage.NewTable("agg", a.Schema)
	if !mapped {
		sg, _, err := stage(&a.Input, in, tree)
		if err != nil {
			return nil, 0, err
		}
		var gs GroupStream
		gs.Reset(prog)
		prog.StreamParts(&gs, sg.order(), out, -1)
		return out, sg.rows, nil
	}
	s, err := CompileStage(&a.Input, in.Schema())
	if err != nil {
		return nil, 0, err
	}
	var acc Accum
	acc.Reset(prog.NGroups, prog.NAggs)
	var rows int
	if tree == nil {
		_, pg := prog.FoldPages(&acc, s, in, 0, in.NumPages(), nil)
		CountSkipped(pg.Skipped)
		rows = pg.Rows
	} else {
		rows = prog.FoldProbe(&acc, s, in, tree, a.Input.IndexScan.Key(nil), nil)
	}
	prog.EmitMapGroups(&acc, out, -1)
	return out, rows, nil
}

// stageInput resolves a stage's input — a base table, or an earlier
// join's output in joinOut — and, when the planner marked the stage for
// index access and the index still exists, its fractal B+-tree (paper
// §IV). The matching filter stays in the stage, so re-evaluation keeps a
// stale index safe, and a dropped one degrades to the scan.
func stageInput(p *plan.Plan, joinOut []*storage.Table, st *plan.Stage) (*storage.Table, *btree.Tree, error) {
	ref := st.Input
	if ref.Base >= 0 {
		entry := p.Tables[ref.Base].Entry
		var tree *btree.Tree
		if st.IndexScan != nil {
			tree = entry.Index(st.IndexScan.Column)
		}
		return entry.Table, tree, nil
	}
	if ref.Join < 0 || ref.Join >= len(joinOut) || joinOut[ref.Join] == nil {
		return nil, nil, fmt.Errorf("core: dangling input reference %v", ref)
	}
	return joinOut[ref.Join], nil, nil
}

// stage runs one staging step of the walk (§IV step 1): filter, project
// and route the input — the tuples the index probe fetches when tree is
// non-nil, otherwise every page — into an arena, which order then lays
// out for the consuming operator. An identity stage that neither
// partitions nor probes references the input's pages instead of copying
// them. It also returns the input row count the trace reports: the tuples
// the probe fetched or the scan examined.
func stage(st *plan.Stage, in *storage.Table, tree *btree.Tree) (*staged, int, error) {
	s, err := CompileStage(st, in.Schema())
	if err != nil {
		return nil, 0, err
	}
	if s.Router == nil && st.IsIdentity(in.Schema()) {
		return &staged{s: s, flat: Flatten(in), rows: in.NumRows()}, in.NumRows(), nil
	}
	// The arena lives for this one operator: size it from the estimate,
	// which the input's row count bounds, instead of growing it.
	a := &Arena{Data: make([]byte, 0, min(max(int(st.EstRows), 0), in.NumRows())*s.Width)}
	var rows int
	if tree != nil {
		rows = s.StageProbe(a, in, tree, st.IndexScan.Key(nil), nil)
	} else {
		pg := s.StagePages(a, in, 0, in.NumPages(), nil, nil)
		CountSkipped(pg.Skipped)
		rows = pg.Rows
	}
	return &staged{s: s, a: a, rows: a.Rows}, rows, nil
}

// staged is one walk stage's output before its ordering: the arena, or
// — a nil arena — an identity stage's references to its input's own
// tuples.
type staged struct {
	s    *Stager
	a    *Arena
	flat [][]byte
	rows int // tuples staged
}

// order lays the staged tuples out for the consuming operator: the
// stage's partitions, each sorted when the stage sorts.
func (sg *staged) order() [][][]byte {
	if sg.a == nil {
		parts := [][][]byte{sg.flat}
		sg.s.sortEach(parts)
		return parts
	}
	var b Buckets
	return sg.s.Order(sg.a, &b, false)
}

// runJoins runs the plan's join descriptors in order — stage each input,
// run the join loop, materialise its output as a table (§V-C) — and
// returns those outputs.
func runJoins(p *plan.Plan) ([]*storage.Table, error) {
	joinOut := make([]*storage.Table, len(p.Joins))
	tr := p.Trace
	var t0 time.Time
	for ji, j := range p.Joins {
		inputs := make([]*staged, len(j.Inputs))
		total := 0
		for i := range j.Inputs {
			if tr != nil {
				t0 = time.Now()
			}
			in, tree, err := stageInput(p, joinOut, &j.Inputs[i])
			if err != nil {
				return nil, err
			}
			rows := 0
			if inputs[i], rows, err = stage(&j.Inputs[i], in, tree); err != nil {
				return nil, err
			}
			total += inputs[i].rows
			if tr != nil {
				tr.Observe(plan.TraceJoinStage(ji, i), int64(rows), int64(inputs[i].rows), time.Since(t0))
			}
		}
		if tr != nil {
			t0 = time.Now()
		}
		parts := make([][][][]byte, len(j.Inputs))
		for i, sg := range inputs {
			if parts[i] = sg.order(); len(parts[i]) != len(parts[0]) {
				return nil, fmt.Errorf("core: join input %d has %d partitions, want %d", i, len(parts[i]), len(parts[0]))
			}
		}
		if tr != nil {
			tr.Observe(plan.TraceJoinOrder(ji), int64(total), int64(total), time.Since(t0))
			t0 = time.Now()
		}
		out := storage.NewTable("joined", j.Schema)
		copies := JoinCopies(j)
		var c Cursor
		CompileJoin(j).Run(parts, 0, len(parts[0]), &c, func(c *Cursor) bool {
			dst := out.AppendSlot()
			for i, specs := range copies {
				CopyInto(dst, c.Tuple(i), specs)
			}
			return true
		})
		if tr != nil {
			tr.Observe(plan.TraceJoin(ji), int64(total), int64(out.NumRows()), time.Since(t0))
		}
		joinOut[ji] = out
	}
	return joinOut, nil
}

// FinishResult applies the tail the general walk and the fused pipelines
// share, in SQL order: HAVING over the aggregated groups, the final
// ordering on order (the compiled ORDER BY, nil when the plan has none), and
// LIMIT. Each replaced result the execution owned is released, and each
// replacement draws from the arena.
func FinishResult(p *plan.Plan, order *Key, result *storage.Table, owned bool) *storage.Table {
	if len(p.Having) > 0 {
		s := result.Schema()
		kept := storage.NewPooledTable("result", s)
		result.Scan(func(t []byte) bool {
			for _, h := range p.Having {
				if !h.Op.Holds(types.Compare(s.GetDatum(t, h.Col), h.Val)) {
					return true
				}
			}
			kept.Append(t)
			return true
		})
		if owned {
			result.Release()
		}
		result, owned = kept, true
	}
	if order != nil {
		var t0 time.Time
		if p.Trace != nil {
			t0 = time.Now()
		}
		sorted := SortTablePooled("result", result, order)
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
