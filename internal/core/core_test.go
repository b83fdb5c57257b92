package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"hique/internal/catalog"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/types"
)

// buildCatalog creates deterministic test tables:
//
//	orders(o_id INT, cust INT, total FLOAT, flag CHAR(2))   n rows
//	cust(c_id INT, region INT)                              m rows
func buildCatalog(nOrders, nCust int) *catalog.Catalog {
	cat := catalog.New()
	rng := rand.New(rand.NewSource(42))

	orders := storage.NewTable("orders", types.NewSchema(
		types.Col("o_id", types.Int), types.Col("cust", types.Int),
		types.Col("total", types.Float), types.CharCol("flag", 2)))
	flags := []string{"A", "B", "C"}
	for i := 0; i < nOrders; i++ {
		orders.AppendRow(
			types.IntDatum(int64(i)),
			types.IntDatum(int64(rng.Intn(nCust))),
			types.FloatDatum(float64(rng.Intn(1000))/10),
			types.StringDatum(flags[rng.Intn(len(flags))]))
	}
	cat.Register(orders)

	cust := storage.NewTable("cust", types.NewSchema(
		types.Col("c_id", types.Int), types.Col("region", types.Int)))
	for i := 0; i < nCust; i++ {
		cust.AppendRow(types.IntDatum(int64(i)), types.IntDatum(int64(i%7)))
	}
	cat.Register(cust)
	return cat
}

func exec(t *testing.T, cat *catalog.Catalog, q string, opts *plan.Options) *storage.Table {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	o := plan.DefaultOptions()
	if opts != nil {
		o = *opts
	}
	p, err := plan.BuildWithOptions(stmt, cat, o)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	out, err := NewEngine().Execute(p)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return out
}

// refJoinCount computes the expected join cardinality by brute force.
func refJoinCount(cat *catalog.Catalog, leftKeyCol, rightKeyCol int) int {
	ordersE, _ := cat.Lookup("orders")
	custE, _ := cat.Lookup("cust")
	counts := map[int64]int{}
	s := custE.Table.Schema()
	custE.Table.Scan(func(tp []byte) bool {
		counts[types.GetInt(tp, s.Offset(rightKeyCol))]++
		return true
	})
	so := ordersE.Table.Schema()
	total := 0
	ordersE.Table.Scan(func(tp []byte) bool {
		total += counts[types.GetInt(tp, so.Offset(leftKeyCol))]
		return true
	})
	return total
}

func TestSimpleFilterProjection(t *testing.T) {
	cat := buildCatalog(1000, 50)
	out := exec(t, cat, "SELECT o_id, total FROM orders WHERE flag = 'A'", nil)
	// Verify against a direct scan.
	e, _ := cat.Lookup("orders")
	s := e.Table.Schema()
	want := 0
	e.Table.Scan(func(tp []byte) bool {
		if types.GetString(tp, s.Offset(3), 2) == "A" {
			want++
		}
		return true
	})
	if out.NumRows() != want {
		t.Fatalf("rows = %d, want %d", out.NumRows(), want)
	}
	if out.Schema().NumColumns() != 2 {
		t.Errorf("columns = %d", out.Schema().NumColumns())
	}
}

func TestComputedColumn(t *testing.T) {
	cat := buildCatalog(100, 10)
	out := exec(t, cat, "SELECT o_id, total * 2 AS dbl FROM orders", nil)
	e, _ := cat.Lookup("orders")
	s := e.Table.Schema()
	i := 0
	var fail bool
	e.Table.Scan(func(tp []byte) bool {
		want := types.GetFloat(tp, s.Offset(2)) * 2
		got := types.GetFloat(out.Tuple(i), out.Schema().Offset(1))
		if got != want {
			fail = true
			return false
		}
		i++
		return true
	})
	if fail {
		t.Fatalf("computed column mismatch at row %d", i)
	}
}

func TestJoinAlgorithmsAgree(t *testing.T) {
	cat := buildCatalog(2000, 100)
	want := refJoinCount(cat, 1, 0)
	for _, alg := range []plan.JoinAlgorithm{plan.MergeJoin, plan.FinePartitionJoin, plan.HybridJoin} {
		opts := plan.DefaultOptions()
		opts.ForceJoinAlg = &alg
		out := exec(t, cat, "SELECT o_id, region FROM orders, cust WHERE orders.cust = cust.c_id", &opts)
		if out.NumRows() != want {
			t.Errorf("%v join: rows = %d, want %d", alg, out.NumRows(), want)
		}
	}
}

func TestJoinProducesCorrectPairs(t *testing.T) {
	cat := buildCatalog(500, 20)
	out := exec(t, cat, "SELECT cust, region FROM orders, cust WHERE orders.cust = cust.c_id", nil)
	s := out.Schema()
	out.Scan(func(tp []byte) bool {
		custID := types.GetInt(tp, s.Offset(0))
		region := types.GetInt(tp, s.Offset(1))
		if region != custID%7 {
			t.Fatalf("bad pair: cust %d with region %d", custID, region)
		}
		return true
	})
}

func TestJoinTeamThreeWay(t *testing.T) {
	cat := catalog.New()
	mk := func(name string, rows int, dup int) {
		tbl := storage.NewTable(name, types.NewSchema(
			types.Col(name+"_k", types.Int), types.Col(name+"_v", types.Int)))
		for i := 0; i < rows; i++ {
			tbl.AppendRow(types.IntDatum(int64(i/dup)), types.IntDatum(int64(i)))
		}
		cat.Register(tbl)
	}
	mk("ta", 300, 3) // keys 0..99, 3 dups each
	mk("tb", 200, 2) // keys 0..99, 2 dups each
	mk("tc", 100, 1) // keys 0..99, 1 each
	q := "SELECT ta_v, tb_v, tc_v FROM ta, tb, tc WHERE ta_k = tb_k AND tb_k = tc_k"
	for _, alg := range []plan.JoinAlgorithm{plan.MergeJoin, plan.HybridJoin} {
		opts := plan.DefaultOptions()
		opts.ForceJoinAlg = &alg
		out := exec(t, cat, q, &opts)
		// Each key: 3*2*1 = 6 combinations, 100 keys -> 600 rows.
		if out.NumRows() != 600 {
			t.Errorf("team %v: rows = %d, want 600", alg, out.NumRows())
		}
	}
	// Binary path must agree.
	opts := plan.DefaultOptions()
	opts.EnableJoinTeams = false
	out := exec(t, cat, q, &opts)
	if out.NumRows() != 600 {
		t.Errorf("binary joins: rows = %d, want 600", out.NumRows())
	}
}

func TestAggregationAlgorithmsAgree(t *testing.T) {
	cat := buildCatalog(5000, 100)
	q := "SELECT flag, SUM(total) AS s, COUNT(*) AS n, AVG(total) AS a, MIN(o_id), MAX(o_id) FROM orders GROUP BY flag ORDER BY flag"

	type row struct {
		flag            string
		sum, avg        float64
		n, minID, maxID int64
	}
	var results [][]row
	for _, alg := range []plan.AggAlgorithm{plan.SortAggregation, plan.HybridAggregation, plan.MapAggregation} {
		opts := plan.DefaultOptions()
		opts.ForceAggAlg = &alg
		out := exec(t, cat, q, &opts)
		s := out.Schema()
		var rows []row
		out.Scan(func(tp []byte) bool {
			rows = append(rows, row{
				flag:  types.GetString(tp, s.Offset(0), 2),
				sum:   types.GetFloat(tp, s.Offset(1)),
				n:     types.GetInt(tp, s.Offset(2)),
				avg:   types.GetFloat(tp, s.Offset(3)),
				minID: types.GetInt(tp, s.Offset(4)),
				maxID: types.GetInt(tp, s.Offset(5)),
			})
			return true
		})
		results = append(results, rows)
	}
	if len(results[0]) != 3 {
		t.Fatalf("groups = %d, want 3", len(results[0]))
	}
	for i := 1; i < len(results); i++ {
		if len(results[i]) != len(results[0]) {
			t.Fatalf("algorithm %d: %d groups vs %d", i, len(results[i]), len(results[0]))
		}
		for g := range results[0] {
			a, b := results[0][g], results[i][g]
			if a.flag != b.flag || a.n != b.n || a.minID != b.minID || a.maxID != b.maxID {
				t.Errorf("group %d mismatch: %+v vs %+v", g, a, b)
			}
			if diff := a.sum - b.sum; diff > 1e-6 || diff < -1e-6 {
				t.Errorf("group %d sum: %g vs %g", g, a.sum, b.sum)
			}
			if diff := a.avg - b.avg; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("group %d avg: %g vs %g", g, a.avg, b.avg)
			}
		}
	}
	// Cross-check group counts against a reference map.
	e, _ := cat.Lookup("orders")
	s := e.Table.Schema()
	ref := map[string]int64{}
	e.Table.Scan(func(tp []byte) bool {
		ref[types.GetString(tp, s.Offset(3), 2)]++
		return true
	})
	for _, r := range results[0] {
		if ref[r.flag] != r.n {
			t.Errorf("flag %q: count %d, want %d", r.flag, r.n, ref[r.flag])
		}
	}
}

func TestGroupByTwoColumns(t *testing.T) {
	cat := buildCatalog(3000, 10)
	out := exec(t, cat, "SELECT flag, cust, COUNT(*) AS n FROM orders GROUP BY flag, cust ORDER BY flag, cust", nil)
	// Reference.
	e, _ := cat.Lookup("orders")
	s := e.Table.Schema()
	ref := map[string]int64{}
	e.Table.Scan(func(tp []byte) bool {
		k := fmt.Sprintf("%s|%d", types.GetString(tp, s.Offset(3), 2), types.GetInt(tp, s.Offset(1)))
		ref[k]++
		return true
	})
	if out.NumRows() != len(ref) {
		t.Fatalf("groups = %d, want %d", out.NumRows(), len(ref))
	}
	os := out.Schema()
	prev := ""
	out.Scan(func(tp []byte) bool {
		k := fmt.Sprintf("%s|%d", types.GetString(tp, os.Offset(0), 2), types.GetInt(tp, os.Offset(1)))
		if ref[k] != types.GetInt(tp, os.Offset(2)) {
			t.Fatalf("group %s: count %d, want %d", k, types.GetInt(tp, os.Offset(2)), ref[k])
		}
		if k <= prev {
			t.Fatalf("output not ordered: %q after %q", k, prev)
		}
		prev = k
		return true
	})
}

func TestOrderByDescWithLimit(t *testing.T) {
	cat := buildCatalog(1000, 50)
	out := exec(t, cat, "SELECT o_id, total FROM orders ORDER BY total DESC, o_id LIMIT 10", nil)
	if out.NumRows() != 10 {
		t.Fatalf("rows = %d, want 10", out.NumRows())
	}
	s := out.Schema()
	prevTotal := 1e18
	var prevID int64 = -1
	out.Scan(func(tp []byte) bool {
		total := types.GetFloat(tp, s.Offset(1))
		id := types.GetInt(tp, s.Offset(0))
		if total > prevTotal {
			t.Fatalf("not descending: %g after %g", total, prevTotal)
		}
		if total == prevTotal && id < prevID {
			t.Fatalf("tie not broken by o_id asc")
		}
		prevTotal, prevID = total, id
		return true
	})
}

func TestJoinThenAggregate(t *testing.T) {
	cat := buildCatalog(2000, 50)
	out := exec(t, cat, "SELECT region, COUNT(*) AS n, SUM(total) AS s FROM orders, cust WHERE orders.cust = cust.c_id GROUP BY region ORDER BY region", nil)
	if out.NumRows() != 7 {
		t.Fatalf("groups = %d, want 7", out.NumRows())
	}
	// Totals must sum to overall join size.
	s := out.Schema()
	var total int64
	out.Scan(func(tp []byte) bool {
		total += types.GetInt(tp, s.Offset(1))
		return true
	})
	if want := int64(refJoinCount(cat, 1, 0)); total != want {
		t.Fatalf("sum of group counts = %d, want %d", total, want)
	}
}

func TestSortTuplesMatchesStdSort(t *testing.T) {
	schema := types.NewSchema(types.Col("k", types.Int))
	f := func(keys []int64) bool {
		tbl := storage.NewTable("t", schema)
		for _, k := range keys {
			tbl.AppendRow(types.IntDatum(k))
		}
		tuples := Flatten(tbl)
		key := CompileKey(schema, []int{0})
		key.Sort(tuples)
		got := make([]int64, len(tuples))
		for i, tp := range tuples {
			got[i] = types.GetInt(tp, 0)
		}
		want := append([]int64(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSortTuplesLargeInput(t *testing.T) {
	// Past the L2 cache: 3.2 MB of tuples.
	schema := types.NewSchema(types.Col("k", types.Int), types.CharCol("pad", 56))
	tbl := storage.NewTable("t", schema)
	rng := rand.New(rand.NewSource(1))
	const n = 50000 // 64B * 50k = 3.2MB
	for i := 0; i < n; i++ {
		tbl.AppendRow(types.IntDatum(rng.Int63n(1e9)), types.StringDatum("x"))
	}
	tuples := Flatten(tbl)
	key := CompileKey(schema, []int{0})
	key.Sort(tuples)
	prev := int64(-1)
	for _, tp := range tuples {
		k := types.GetInt(tp, 0)
		if k < prev {
			t.Fatal("large sort produced unordered output")
		}
		prev = k
	}
}

func TestMergeJoinEqualsNestedLoopsQuick(t *testing.T) {
	schema := types.NewSchema(types.Col("k", types.Int), types.Col("v", types.Int))
	f := func(aKeys, bKeys []uint8) bool {
		if len(aKeys) == 0 || len(bKeys) == 0 {
			return true
		}
		cat := catalog.New()
		ta := storage.NewTable("qa", schema)
		for i, k := range aKeys {
			ta.AppendRow(types.IntDatum(int64(k%16)), types.IntDatum(int64(i)))
		}
		cat.Register(ta)
		tb := storage.NewTable("qb", types.NewSchema(types.Col("k2", types.Int), types.Col("w", types.Int)))
		for i, k := range bKeys {
			tb.AppendRow(types.IntDatum(int64(k%16)), types.IntDatum(int64(i)))
		}
		cat.Register(tb)

		// Reference count by brute force.
		want := 0
		for _, ka := range aKeys {
			for _, kb := range bKeys {
				if ka%16 == kb%16 {
					want++
				}
			}
		}
		stmt, err := sql.Parse("SELECT v, w FROM qa, qb WHERE qa.k = qb.k2")
		if err != nil {
			return false
		}
		for _, alg := range []plan.JoinAlgorithm{plan.MergeJoin, plan.HybridJoin} {
			opts := plan.DefaultOptions()
			opts.ForceJoinAlg = &alg
			p, err := plan.BuildWithOptions(stmt, cat, opts)
			if err != nil {
				return false
			}
			out, err := NewEngine().Execute(p)
			if err != nil || out.NumRows() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMapAggMatchesReferenceQuick(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		cat := catalog.New()
		tbl := storage.NewTable("qt", types.NewSchema(types.Col("g", types.Int), types.Col("x", types.Int)))
		ref := map[int64]int64{}
		for i, v := range vals {
			g := int64(v % 8)
			tbl.AppendRow(types.IntDatum(g), types.IntDatum(int64(i)))
			ref[g] += int64(i)
		}
		cat.Register(tbl)
		stmt, _ := sql.Parse("SELECT g, SUM(x) AS s FROM qt GROUP BY g ORDER BY g")
		alg := plan.MapAggregation
		opts := plan.DefaultOptions()
		opts.ForceAggAlg = &alg
		p, err := plan.BuildWithOptions(stmt, cat, opts)
		if err != nil {
			return false
		}
		out, err := NewEngine().Execute(p)
		if err != nil || out.NumRows() != len(ref) {
			return false
		}
		ok := true
		s := out.Schema()
		out.Scan(func(tp []byte) bool {
			g := types.GetInt(tp, s.Offset(0))
			if ref[g] != types.GetInt(tp, s.Offset(1)) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFilterCompilation(t *testing.T) {
	schema := types.NewSchema(types.Col("i", types.Int), types.Col("f", types.Float), types.CharCol("s", 4))
	mk := func(i int64, fv float64, sv string) []byte {
		return schema.EncodeRow(types.IntDatum(i), types.FloatDatum(fv), types.StringDatum(sv))
	}
	cases := []struct {
		f    plan.Filter
		hit  []byte
		miss []byte
	}{
		{plan.Filter{Col: 0, Op: sql.CmpEq, Val: types.IntDatum(5)}, mk(5, 0, ""), mk(6, 0, "")},
		{plan.Filter{Col: 0, Op: sql.CmpNe, Val: types.IntDatum(5)}, mk(4, 0, ""), mk(5, 0, "")},
		{plan.Filter{Col: 0, Op: sql.CmpLt, Val: types.IntDatum(5)}, mk(4, 0, ""), mk(5, 0, "")},
		{plan.Filter{Col: 0, Op: sql.CmpLe, Val: types.IntDatum(5)}, mk(5, 0, ""), mk(6, 0, "")},
		{plan.Filter{Col: 0, Op: sql.CmpGt, Val: types.IntDatum(5)}, mk(6, 0, ""), mk(5, 0, "")},
		{plan.Filter{Col: 0, Op: sql.CmpGe, Val: types.IntDatum(5)}, mk(5, 0, ""), mk(4, 0, "")},
		{plan.Filter{Col: 1, Op: sql.CmpGt, Val: types.FloatDatum(1.5)}, mk(0, 2.0, ""), mk(0, 1.0, "")},
		{plan.Filter{Col: 2, Op: sql.CmpEq, Val: types.StringDatum("ab")}, mk(0, 0, "ab"), mk(0, 0, "ac")},
		{plan.Filter{Col: 2, Op: sql.CmpLt, Val: types.StringDatum("m")}, mk(0, 0, "a"), mk(0, 0, "z")},
	}
	for i, c := range cases {
		preds := CompilePreds(schema, []plan.Filter{c.f})
		if !MatchPreds(preds, c.hit, nil) {
			t.Errorf("case %d: filter rejected matching tuple", i)
		}
		if MatchPreds(preds, c.miss, nil) {
			t.Errorf("case %d: filter accepted non-matching tuple", i)
		}
		// The same filter as a parameter reads its value from the bind
		// vector.
		param := c.f
		param.Val, param.Param = types.Datum{}, 1
		preds = CompilePreds(schema, []plan.Filter{param})
		if bind := []types.Datum{c.f.Val}; !MatchPreds(preds, c.hit, bind) || MatchPreds(preds, c.miss, bind) {
			t.Errorf("case %d: bound filter disagrees with the literal", i)
		}
	}
	// Conjunction.
	both := CompilePreds(schema, []plan.Filter{
		{Col: 0, Op: sql.CmpGe, Val: types.IntDatum(3)},
		{Col: 0, Op: sql.CmpLe, Val: types.IntDatum(7)},
	})
	if !MatchPreds(both, mk(5, 0, ""), nil) || MatchPreds(both, mk(8, 0, ""), nil) || MatchPreds(both, mk(2, 0, ""), nil) {
		t.Error("conjunction filter wrong")
	}
}

func TestHashDistribution(t *testing.T) {
	const m = 64
	counts := make([]int, m)
	for i := int64(0); i < 100000; i++ {
		counts[HashInt(i)&(m-1)]++
	}
	for p, c := range counts {
		if c < 800 || c > 2400 {
			t.Errorf("partition %d has %d of 100000 (expected ~1562)", p, c)
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	cat := buildCatalog(0, 0)
	out := exec(t, cat, "SELECT o_id FROM orders", nil)
	if out.NumRows() != 0 {
		t.Errorf("empty scan rows = %d", out.NumRows())
	}
	out = exec(t, cat, "SELECT flag, COUNT(*) FROM orders GROUP BY flag", nil)
	if out.NumRows() != 0 {
		t.Errorf("empty aggregation rows = %d", out.NumRows())
	}
}

// A fine stage the planner gave no directory is a plan defect and must
// fail; an empty directory (disjoint join domains) is zero partitions
// with every tuple dropped.
func TestFineRouterNilVersusEmptyDirectory(t *testing.T) {
	schema := types.NewSchema(types.Col("k", types.Int))
	st := &plan.Stage{Action: plan.StagePartitionFine, Schema: schema}
	if _, _, err := stageRouter(st); err == nil {
		t.Error("nil value directory: want an error")
	}
	st.FineValues = &catalog.Directory{Kind: types.Int}
	r, n, err := stageRouter(st)
	if err != nil || n != 0 {
		t.Fatalf("empty value directory: partitions = %d, err = %v", n, err)
	}
	tuple := make([]byte, schema.TupleSize())
	types.PutInt(tuple, 0, 3)
	sc := GetScratch()
	defer sc.Put()
	if p := r.route(sc, tuple, len(tuple), 1); p[0] != -1 {
		t.Errorf("empty value directory routed a tuple to %d", p[0])
	}
}
