package bench

import (
	"fmt"

	"hique/internal/catalog"
	"hique/internal/codegen"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/types"
	"hique/internal/volcano"
)

// tupleTable builds a 72-byte-tuple table: one key column plus eight
// payload ints, with keys cycling over `distinct` values. Column names are
// prefixed so multi-table catalogues resolve unambiguously.
func tupleTable(name, prefix string, n, distinct int) *storage.Table {
	cols := make([]types.Column, 9)
	cols[0] = types.Col(prefix+"key", types.Int)
	for i := 1; i < 9; i++ {
		cols[i] = types.Col(fmt.Sprintf("%sf%d", prefix, i), types.Int)
	}
	t := storage.NewTable(name, types.NewSchema(cols...))
	buf := make([]byte, t.Schema().TupleSize())
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		types.PutInt(buf, 0, int64(i%distinct))
		for f := 1; f < 9; f++ {
			types.PutInt(buf, f*8, int64(x>>uint(f)))
		}
		t.Append(buf)
	}
	return t
}

func mustPlan(cat *catalog.Catalog, query string, opts plan.Options) *plan.Plan {
	stmt, err := sql.Parse(query)
	if err != nil {
		panic(fmt.Sprintf("bench: parse %q: %v", query, err))
	}
	p, err := plan.BuildWithOptions(stmt, cat, opts)
	if err != nil {
		panic(fmt.Sprintf("bench: plan %q: %v", query, err))
	}
	return p
}

func runTimed(e plan.Executor, p *plan.Plan, reps int) float64 {
	return timeIt(reps, func() {
		if _, err := e.Execute(p); err != nil {
			panic(fmt.Sprintf("bench: %s: %v", e.Name(), err))
		}
	}).Seconds()
}

// Fig7a reproduces the join scalability experiment: outer 1M tuples, inner
// cardinality swept 1M..10M, ten matches per outer tuple, merge vs hybrid
// join on optimized iterators vs HIQUE.
func Fig7a(scale float64) Result {
	outerN := max(int(1000000*scale), 2000)
	multipliers := []int{1, 2, 4, 6, 8, 10}

	res := Result{
		ID:     "Fig7a",
		Title:  fmt.Sprintf("Join scalability: outer %d tuples, inner swept, 10 matches/outer (seconds)", outerN),
		Header: []string{"Series"},
	}
	for _, m := range multipliers {
		res.Header = append(res.Header, fmt.Sprintf("inner=%dx", m))
	}

	type series struct {
		name string
		alg  plan.JoinAlgorithm
		eng  plan.Executor
	}
	all := []series{
		{"Merge - Iterators", plan.MergeJoin, volcano.NewOptimized()},
		{"Hybrid - Iterators", plan.HybridJoin, volcano.NewOptimized()},
		{"Merge - HIQUE", plan.MergeJoin, codegen.Executor{}},
		{"Hybrid - HIQUE", plan.HybridJoin, codegen.Executor{}},
	}
	rows := make([][]string, len(all))
	for i, s := range all {
		rows[i] = []string{s.name}
	}

	for _, m := range multipliers {
		innerN := outerN * m
		distinct := max(innerN/10, 1)
		cat := catalog.New()
		cat.Register(tupleTable("jouter", "o", outerN, distinct))
		cat.Register(tupleTable("jinner", "i", innerN, distinct))
		q := "SELECT of1, if1 FROM jouter, jinner WHERE jouter.okey = jinner.ikey"
		for i, s := range all {
			opts := plan.DefaultOptions()
			alg := s.alg
			opts.ForceJoinAlg = &alg
			p := mustPlan(cat, q, opts)
			rows[i] = append(rows[i], fmt.Sprintf("%.3f", runTimed(s.eng, p, 2)))
		}
	}
	res.Rows = rows
	res.Notes = []string{"All series evaluate the same plans; algorithms forced per series (paper Fig. 7a)."}
	return res
}

// Fig7b reproduces the multi-way join experiment: one large table joined
// with a growing number of 100k-tuple tables on a single shared key,
// comparing binary merge cascades against HIQUE's join teams.
func Fig7b(scale float64) Result {
	bigN := max(int(1000000*scale), 2000)
	smallN := max(int(100000*scale), 1000)
	distinct := smallN // each small table holds each key exactly once
	tableCounts := []int{2, 3, 4, 5, 6, 7, 8}

	res := Result{
		ID:     "Fig7b",
		Title:  fmt.Sprintf("Multi-way joins: %d-tuple table joined with k-1 tables of %d tuples (seconds)", bigN, smallN),
		Header: []string{"Series"},
	}
	for _, k := range tableCounts {
		res.Header = append(res.Header, fmt.Sprintf("k=%d", k))
	}

	type series struct {
		name  string
		alg   plan.JoinAlgorithm
		eng   plan.Executor
		teams bool
	}
	all := []series{
		{"Merge - Iterators", plan.MergeJoin, volcano.NewOptimized(), false},
		{"Merge - HIQUE (binary)", plan.MergeJoin, codegen.Executor{}, false},
		{"Merge - HIQUE (team)", plan.MergeJoin, codegen.Executor{}, true},
		{"Hybrid - HIQUE (team)", plan.HybridJoin, codegen.Executor{}, true},
	}
	rows := make([][]string, len(all))
	for i, s := range all {
		rows[i] = []string{s.name}
	}

	for _, k := range tableCounts {
		cat := catalog.New()
		cat.Register(tupleTable("big", "b", bigN, distinct))
		query := "SELECT bf1 FROM big"
		where := ""
		for j := 1; j < k; j++ {
			prefix := fmt.Sprintf("s%d", j)
			cat.Register(tupleTable(fmt.Sprintf("small%d", j), prefix, smallN, distinct))
			query += fmt.Sprintf(", small%d", j)
			if j == 1 {
				where = " WHERE big.bkey = small1.s1key"
			} else {
				where += fmt.Sprintf(" AND small%d.s%dkey = small%d.s%dkey", j-1, j-1, j, j)
			}
		}
		query += where
		for i, s := range all {
			opts := plan.DefaultOptions()
			alg := s.alg
			opts.ForceJoinAlg = &alg
			opts.EnableJoinTeams = s.teams
			p := mustPlan(cat, query, opts)
			rows[i] = append(rows[i], fmt.Sprintf("%.3f", runTimed(s.eng, p, 2)))
		}
	}
	res.Rows = rows
	res.Notes = []string{"Join teams fuse all inputs into one deeply nested loop; binary plans materialise each intermediate (paper Fig. 7b)."}
	return res
}

// Fig7c reproduces the join-selectivity experiment: two equal tables with
// the matches-per-outer-tuple swept 1..1000.
func Fig7c(scale float64) Result {
	n := max(int(1000000*scale), 2000)
	matches := []int{1, 10, 100, 1000}

	res := Result{
		ID:     "Fig7c",
		Title:  fmt.Sprintf("Join predicate selectivity: two %d-tuple tables, matches/outer swept (seconds)", n),
		Header: []string{"Series"},
	}
	for _, m := range matches {
		res.Header = append(res.Header, fmt.Sprintf("matches=%d", m))
	}

	type series struct {
		name string
		alg  plan.JoinAlgorithm
		eng  plan.Executor
	}
	all := []series{
		{"Merge - Iterators", plan.MergeJoin, volcano.NewOptimized()},
		{"Hybrid - Iterators", plan.HybridJoin, volcano.NewOptimized()},
		{"Merge - HIQUE", plan.MergeJoin, codegen.Executor{}},
		{"Hybrid - HIQUE", plan.HybridJoin, codegen.Executor{}},
	}
	rows := make([][]string, len(all))
	for i, s := range all {
		rows[i] = []string{s.name}
	}

	for _, m := range matches {
		distinct := max(n/m, 1)
		cat := catalog.New()
		cat.Register(tupleTable("jouter", "o", n, distinct))
		cat.Register(tupleTable("jinner", "i", n, distinct))
		q := "SELECT of1, if1 FROM jouter, jinner WHERE jouter.okey = jinner.ikey"
		for i, s := range all {
			opts := plan.DefaultOptions()
			alg := s.alg
			opts.ForceJoinAlg = &alg
			p := mustPlan(cat, q, opts)
			rows[i] = append(rows[i], fmt.Sprintf("%.3f", runTimed(s.eng, p, 1)))
		}
	}
	res.Rows = rows
	res.Notes = []string{"Output cardinality is n x matches: the gap between iterators and HIQUE widens with selectivity (paper Fig. 7c)."}
	return res
}

// Fig7d reproduces the grouping-cardinality experiment: 1M tuples, two
// SUMs, group count swept 10..100k, sort/hybrid/map aggregation on
// iterators vs HIQUE.
func Fig7d(scale float64) Result {
	n := max(int(1000000*scale), 2000)
	groupCounts := []int{10, 100, 1000, 10000, 100000}

	res := Result{
		ID:     "Fig7d",
		Title:  fmt.Sprintf("Grouping-attribute cardinality: %d tuples, 2 SUMs (seconds)", n),
		Header: []string{"Series"},
	}
	for _, g := range groupCounts {
		res.Header = append(res.Header, fmt.Sprintf("groups=%d", g))
	}

	type series struct {
		name string
		alg  plan.AggAlgorithm
		eng  plan.Executor
	}
	all := []series{
		{"Sort - Iterators", plan.SortAggregation, volcano.NewOptimized()},
		{"Hybrid - Iterators", plan.HybridAggregation, volcano.NewOptimized()},
		{"Map - Iterators", plan.MapAggregation, volcano.NewOptimized()},
		{"Sort - HIQUE", plan.SortAggregation, codegen.Executor{}},
		{"Hybrid - HIQUE", plan.HybridAggregation, codegen.Executor{}},
		{"Map - HIQUE", plan.MapAggregation, codegen.Executor{}},
	}
	rows := make([][]string, len(all))
	for i, s := range all {
		rows[i] = []string{s.name}
	}

	for _, g := range groupCounts {
		groups := g
		if groups > n {
			groups = n
		}
		cat := catalog.New()
		cat.Register(tupleTable("aggt", "a", n, groups))
		q := "SELECT akey, SUM(af1) AS s1, SUM(af2) AS s2 FROM aggt GROUP BY akey"
		for i, s := range all {
			opts := plan.DefaultOptions()
			alg := s.alg
			opts.ForceAggAlg = &alg
			p := mustPlan(cat, q, opts)
			rows[i] = append(rows[i], fmt.Sprintf("%.3f", runTimed(s.eng, p, 2)))
		}
	}
	res.Rows = rows
	res.Notes = []string{
		"Map aggregation uses per-attribute value directories (Fig. 4); sort/hybrid stage the input first.",
		"The paper's crossover: map wins while directories + arrays fit in L2, loses at high group counts (Fig. 7d).",
	}
	return res
}
