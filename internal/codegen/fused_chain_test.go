package codegen

import (
	"fmt"
	"testing"

	"hique/internal/catalog"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/tpch"
	"hique/internal/types"
)

// chainQuery joins fact→dim and fact→ext on distinct key classes, so the
// planner emits two binary joins instead of one join team.
const chainQuery = "SELECT f.id, x.w FROM fact f, dim d, ext x WHERE f.grp = d.id AND x.id = f.id ORDER BY f.id"

// chainCatalog is fact (20 000 rows, 16 groups), dim (16 rows, five
// CHAR labels) and ext (40 000 rows, two per fact id, varied weights):
// fact⋈dim is the cheaper first join, so the second join stages ext, a
// table large enough to split into staging morsels.
func chainCatalog() *catalog.Catalog {
	cat := catalog.New()
	fact := storage.NewTable("fact", types.NewSchema(
		types.Col("id", types.Int), types.Col("grp", types.Int),
		types.Col("price", types.Float)))
	for i := 0; i < 20000; i++ {
		fact.AppendRow(types.IntDatum(int64(i)), types.IntDatum(int64(i%16)), types.FloatDatum(float64(i%997)))
	}
	cat.Register(fact)
	dim := storage.NewTable("dim", types.NewSchema(
		types.Col("id", types.Int), types.CharCol("label", 8)))
	for i := 0; i < 16; i++ {
		dim.AppendRow(types.IntDatum(int64(i)), types.StringDatum(fmt.Sprintf("d%d", i%5)))
	}
	cat.Register(dim)
	ext := storage.NewTable("ext", types.NewSchema(
		types.Col("id", types.Int), types.Col("w", types.Float)))
	for i := 0; i < 40000; i++ {
		ext.AppendRow(types.IntDatum(int64((i*7919)%20000)), types.FloatDatum(float64(i%13)/3))
	}
	cat.Register(ext)
	return cat
}

// TestFusedChainSelection pins the N-way chain shapes the join-chain
// constructor claims.
func TestFusedChainSelection(t *testing.T) {
	cat := chainCatalog()
	fused := []string{
		chainQuery,
		"SELECT d.label, SUM(x.w) AS s FROM fact f, dim d, ext x WHERE f.grp = d.id AND x.id = f.id GROUP BY d.label ORDER BY d.label",
		"SELECT COUNT(*) AS n FROM fact f, dim d, ext x WHERE f.grp = d.id AND x.id = f.id",
		// Parameterized: every join reads the bind vector (CHAR values
		// included).
		"SELECT f.id, x.w FROM fact f, dim d, ext x WHERE f.grp = d.id AND x.id = f.id AND f.price > ?",
		"SELECT f.id, x.w FROM fact f, dim d, ext x WHERE f.grp = d.id AND x.id = f.id AND d.label = ?",
		// HAVING filters the emitted groups in the shared result tail.
		"SELECT d.label, COUNT(*) AS n FROM fact f, dim d, ext x WHERE f.grp = d.id AND x.id = f.id GROUP BY d.label HAVING n > 1",
	}
	for _, q := range fused {
		p := buildPlan(t, cat, q)
		if len(p.Joins) < 2 {
			t.Fatalf("%q planned %d join(s); the chain test needs at least 2", q, len(p.Joins))
		}
		if _, err := newFusedJoin(p); err != nil {
			t.Errorf("join chain declined %q: %v", q, err)
		}
	}
}

// TestFusedChainMatchesGeneralWalk runs each chain through the fused
// joins and through core's operator walk and requires
// byte-identical rows in the same order, and the trace contract: every
// join's rows-out is the walk's, and a chain-fed stage's rows-in is the
// previous join's rows-out.
func TestFusedChainMatchesGeneralWalk(t *testing.T) {
	cat := chainCatalog()
	merge, hybrid, fine := plan.MergeJoin, plan.HybridJoin, plan.FinePartitionJoin
	hybridAgg := plan.HybridAggregation
	const (
		chainAgg = "SELECT d.label, COUNT(*) AS n, SUM(x.w) AS s FROM fact f, dim d, ext x WHERE f.grp = d.id AND x.id = f.id GROUP BY d.label ORDER BY d.label"
		noOrder  = "SELECT f.id, x.w FROM fact f, dim d, ext x WHERE f.grp = d.id AND x.id = f.id"
	)
	type chainCase struct {
		name    string
		q       string
		alg     *plan.JoinAlgorithm // nil: the planner's choice
		agg     *plan.AggAlgorithm
		workers int // > 0: parallel threshold 1 at this worker target
		params  []types.Datum
		mirror  bool // swap join 1's inputs: the chain-fed side on side 1
	}
	cases := []chainCase{
		{name: "planner", q: chainQuery},
		{name: "aggregate", q: chainAgg},
		{name: "empty-intermediate", q: "SELECT f.id, x.w FROM fact f, dim d, ext x WHERE f.grp = d.id AND x.id = f.id AND f.price < 0.0"},
		{name: "fed-side-1", q: chainQuery, mirror: true},
		{name: "fed-side-1-fine", q: chainQuery, alg: &fine, mirror: true},
		{name: "limit-no-order", q: noOrder + " LIMIT 7"},
		{name: "limit-no-order-fine", q: noOrder + " LIMIT 7", alg: &fine},
		{name: "merge", q: chainQuery, alg: &merge},
		{name: "hybrid", q: chainQuery, alg: &hybrid},
		{name: "fine", q: chainQuery, alg: &fine},
		{name: "collect-agg", q: chainAgg, agg: &hybridAgg},
		{name: "char-param", q: noOrder + " AND d.label = ?", params: []types.Datum{types.StringDatum("d3")}},
	}
	for _, w := range []int{1, 2, 3, 8} {
		cases = append(cases,
			chainCase{name: fmt.Sprintf("planner/workers-%d", w), q: chainQuery, workers: w},
			chainCase{name: fmt.Sprintf("fine/workers-%d", w), q: chainQuery, alg: &fine, workers: w},
			chainCase{name: fmt.Sprintf("fine-limit/workers-%d", w), q: noOrder + " LIMIT 7", alg: &fine, workers: w},
			chainCase{name: fmt.Sprintf("collect-agg/workers-%d", w), q: chainAgg, alg: &fine, agg: &hybridAgg, workers: w})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.workers > 0 {
				forceParallel(t)
			}
			stmt, err := sql.Parse(c.q)
			if err != nil {
				t.Fatal(err)
			}
			opts := plan.DefaultOptions()
			opts.ForceJoinAlg, opts.ForceAggAlg, opts.Parallelism = c.alg, c.agg, max(c.workers, 1)
			p, err := plan.BuildWithOptions(stmt, cat, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.Joins) != 2 {
				t.Fatalf("planned %d join(s), want a chain of 2", len(p.Joins))
			}
			if c.mirror {
				j := p.Joins[1]
				j.Inputs[0], j.Inputs[1] = j.Inputs[1], j.Inputs[0]
				j.Keys[0], j.Keys[1] = j.Keys[1], j.Keys[0]
				for k := range j.Out {
					j.Out[k].Input = 1 - j.Out[k].Input
				}
			}
			want, wantTr := runChain(t, p, false, true, c.params)
			got, gotTr := runChain(t, p, true, true, c.params)
			serving, _ := runChain(t, p, true, false, c.params)
			for _, r := range []struct {
				what string
				rows []string
			}{{"traced", got}, {"untraced", serving}} {
				if fmt.Sprint(r.rows) != fmt.Sprint(want) {
					t.Fatalf("%s fused chain differs from the walk\nwalk:  %q\nfused: %q", r.what, want, r.rows)
				}
			}
			if len(want) == 0 && c.name != "empty-intermediate" {
				t.Fatal("degenerate case: no rows")
			}
			for ji := range p.Joins {
				name := plan.TraceJoin(ji)
				fj, wj := traceStage(t, gotTr, name), traceStage(t, wantTr, name)
				// Under LIMIT without ORDER BY only the last join stops early.
				if (ji < len(p.Joins)-1 || p.Limit < 0) && fj.RowsOut != wj.RowsOut {
					t.Errorf("%s rows-out: fused %d, walk %d", name, fj.RowsOut, wj.RowsOut)
				}
				for s := range p.Joins[ji].Inputs {
					if p.Joins[ji].Inputs[s].Input.Base >= 0 {
						continue
					}
					name := plan.TraceJoinStage(ji, s)
					st, ws := traceStage(t, gotTr, name), traceStage(t, wantTr, name)
					prev := traceStage(t, gotTr, plan.TraceJoin(ji-1))
					if st.RowsIn != prev.RowsOut || st.RowsOut != ws.RowsOut {
						t.Errorf("%s: rows %d→%d, want %d in (join[%d] out), %d out (the walk's)",
							name, st.RowsIn, st.RowsOut, prev.RowsOut, ji-1, ws.RowsOut)
					}
				}
			}
			if c.workers > 1 && c.alg == &fine && !tracedPhase(gotTr, plan.TraceJoin(0)) {
				t.Errorf("no parallel join phase on join[0]: %+v", gotTr.Parallel)
			}
		})
	}
}

// runChain runs p through the fused chain or core's walk, traced or
// not, and returns its raw rows in result order and the trace.
func runChain(t *testing.T, p *plan.Plan, fused, traced bool, params []types.Datum) ([]string, *plan.Trace) {
	t.Helper()
	var tr *plan.Trace
	if traced {
		tr = &plan.Trace{}
	}
	p.Trace = tr
	defer func() { p.Trace = nil }()
	var out *storage.Table
	if fused {
		q, err := Generate(p, OptO2)
		if err != nil {
			t.Fatal(err)
		}
		if out, err = q.RunParams(params); err != nil {
			t.Fatal(err)
		}
		defer out.Release()
	} else {
		out = runWalk(t, p, params...)
	}
	var rows []string
	out.Scan(func(tup []byte) bool {
		rows = append(rows, fmt.Sprintf("%x", tup))
		return true
	})
	return rows, tr
}

func traceStage(t *testing.T, tr *plan.Trace, name string) plan.StageTrace {
	t.Helper()
	for _, s := range tr.Stages {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("trace has no %s stage: %+v", name, tr.Stages)
	return plan.StageTrace{}
}

func tracedPhase(tr *plan.Trace, stage string) bool {
	for _, ph := range tr.Parallel {
		if ph.Stage == stage && ph.Workers > 0 {
			return true
		}
	}
	return false
}

// TestFusedChainClaimsTPCHJoins proves the join chain actually serves
// Q3's three-way and Q10's four-way join at -O2 as chains of binary
// joins.
func TestFusedChainClaimsTPCHJoins(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.005, Seed: 42})
	for _, n := range []int{3, 10} {
		text, err := tpch.Query(n)
		if err != nil {
			t.Fatal(err)
		}
		stmt, err := sql.Parse(text)
		if err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		p, err := plan.Build(stmt, cat)
		if err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		if len(p.Joins) < 2 {
			t.Fatalf("Q%d planned %d join(s)", n, len(p.Joins))
		}
		q, err := Generate(p, OptO2)
		if err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		if !q.Fused || q.Path != "fused" {
			t.Errorf("Q%d did not compile to the fused join chain (path %q)", n, q.Path)
		}
	}
}
