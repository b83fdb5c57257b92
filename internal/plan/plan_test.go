package plan

import (
	"fmt"
	"strings"
	"testing"

	"hique/internal/catalog"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/types"
)

// testCatalog builds a small star schema:
//
//	fact(fk INT, dim_id INT, val FLOAT, grp INT)        100k rows, grp in [0,50)
//	dim(dim_id INT, label CHAR(8))                      100 rows
//	dim2(d2_id INT, name CHAR(8))                       20 rows
//	big(big_id INT, fk INT, x INT)                      200k rows
func testCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()

	fact := storage.NewTable("fact", types.NewSchema(
		types.Col("fk", types.Int), types.Col("dim_id", types.Int),
		types.Col("val", types.Float), types.Col("grp", types.Int)))
	for i := 0; i < 100000; i++ {
		fact.AppendRow(types.IntDatum(int64(i%200000)), types.IntDatum(int64(i%100)),
			types.FloatDatum(float64(i)), types.IntDatum(int64(i%50)))
	}
	cat.Register(fact)

	dim := storage.NewTable("dim", types.NewSchema(
		types.Col("dim_id", types.Int), types.CharCol("label", 8)))
	for i := 0; i < 100; i++ {
		dim.AppendRow(types.IntDatum(int64(i)), types.StringDatum(fmt.Sprintf("L%d", i)))
	}
	cat.Register(dim)

	dim2 := storage.NewTable("dim2", types.NewSchema(
		types.Col("d2_id", types.Int), types.CharCol("name", 8)))
	for i := 0; i < 20; i++ {
		dim2.AppendRow(types.IntDatum(int64(i)), types.StringDatum(fmt.Sprintf("N%d", i)))
	}
	cat.Register(dim2)

	big := storage.NewTable("big", types.NewSchema(
		types.Col("big_id", types.Int), types.Col("fk", types.Int), types.Col("x", types.Int)))
	for i := 0; i < 200000; i++ {
		big.AppendRow(types.IntDatum(int64(i)), types.IntDatum(int64(i)), types.IntDatum(int64(i%1000)))
	}
	cat.Register(big)

	return cat
}

func buildPlan(t *testing.T, cat *catalog.Catalog, q string) *Plan {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := Build(stmt, cat)
	if err != nil {
		t.Fatalf("Build(%q): %v", q, err)
	}
	return p
}

func TestSingleTableProjection(t *testing.T) {
	cat := testCatalog(t)
	p := buildPlan(t, cat, "SELECT fk, val FROM fact WHERE grp = 3")
	if len(p.Joins) != 0 || p.Agg != nil {
		t.Fatal("single-table plan should have no joins or aggregation")
	}
	if p.Final == nil {
		t.Fatal("missing final projection")
	}
	if len(p.Final.Filters) != 1 {
		t.Fatalf("filters = %v", p.Final.Filters)
	}
	f := p.Final.Filters[0]
	if f.Op != sql.CmpEq || f.Val.I != 3 {
		t.Errorf("filter = %v", f)
	}
	if got := p.ResultSchema().NumColumns(); got != 2 {
		t.Errorf("result columns = %d", got)
	}
	if p.OutputNames[0] != "fk" || p.OutputNames[1] != "val" {
		t.Errorf("output names = %v", p.OutputNames)
	}
}

func TestComputedProjection(t *testing.T) {
	cat := testCatalog(t)
	p := buildPlan(t, cat, "SELECT val * 2 AS doubled FROM fact")
	oc := p.Final.Cols[0]
	if oc.Compute == nil {
		t.Fatal("expected computed column")
	}
	if oc.Kind != types.Float {
		t.Errorf("computed kind = %v", oc.Kind)
	}
	if p.OutputNames[0] != "doubled" {
		t.Errorf("name = %q", p.OutputNames[0])
	}
}

func TestBinaryJoinPlan(t *testing.T) {
	cat := testCatalog(t)
	p := buildPlan(t, cat, "SELECT label FROM fact, dim WHERE fact.dim_id = dim.dim_id")
	if len(p.Joins) != 1 {
		t.Fatalf("joins = %d", len(p.Joins))
	}
	j := p.Joins[0]
	if len(j.Inputs) != 2 {
		t.Fatalf("inputs = %d", len(j.Inputs))
	}
	// dim_id has 100 distinct values: fine partitioning applies.
	if j.Alg != FinePartitionJoin {
		t.Errorf("algorithm = %v, want fine-partition", j.Alg)
	}
	// Key columns must point at dim_id in each staged schema.
	for i := range j.Inputs {
		name := j.Inputs[i].Schema.Column(j.Keys[i]).Name
		if !strings.HasSuffix(name, ".dim_id") {
			t.Errorf("input %d key = %q", i, name)
		}
	}
}

func TestJoinTeamDetection(t *testing.T) {
	cat := testCatalog(t)
	// Three tables joined on one equivalence class -> a single team op.
	q := "SELECT big.x FROM fact, big, big b2 WHERE fact.fk = big.fk AND big.fk = b2.fk"
	p := buildPlan(t, cat, q)
	if len(p.Joins) != 1 {
		t.Fatalf("joins = %d, want 1 team join", len(p.Joins))
	}
	if got := len(p.Joins[0].Inputs); got != 3 {
		t.Fatalf("team inputs = %d, want 3", got)
	}
}

func TestJoinTeamsDisabled(t *testing.T) {
	cat := testCatalog(t)
	stmt, err := sql.Parse("SELECT big.x FROM fact, big, big b2 WHERE fact.fk = big.fk AND big.fk = b2.fk")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.EnableJoinTeams = false
	p, err := BuildWithOptions(stmt, cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Joins) != 2 {
		t.Fatalf("joins = %d, want 2 binary joins", len(p.Joins))
	}
	// Second join must consume the first's output.
	if p.Joins[1].Inputs[0].Input.Base != -1 {
		t.Errorf("second join left input = %v, want join[0]", p.Joins[1].Inputs[0].Input)
	}
}

func TestForceJoinAlgorithm(t *testing.T) {
	cat := testCatalog(t)
	stmt, _ := sql.Parse("SELECT label FROM fact, dim WHERE fact.dim_id = dim.dim_id")
	for _, alg := range []JoinAlgorithm{MergeJoin, FinePartitionJoin, HybridJoin} {
		opts := DefaultOptions()
		opts.ForceJoinAlg = &alg
		p, err := BuildWithOptions(stmt, cat, opts)
		if err != nil {
			t.Fatal(err)
		}
		if p.Joins[0].Alg != alg {
			t.Errorf("forced %v, got %v", alg, p.Joins[0].Alg)
		}
	}
}

func TestMapAggregationChosenForSmallDomain(t *testing.T) {
	cat := testCatalog(t)
	p := buildPlan(t, cat, "SELECT grp, SUM(val) FROM fact GROUP BY grp")
	if p.Agg == nil {
		t.Fatal("missing aggregation")
	}
	if p.Agg.Alg != MapAggregation {
		t.Errorf("algorithm = %v, want map (grp has 50 values)", p.Agg.Alg)
	}
	if len(p.Agg.Directories) != 1 || p.Agg.Directories[0].Len() != 50 {
		t.Errorf("directories = %v", p.Agg.Directories)
	}
	if p.Agg.Input.Action != StageNone {
		t.Errorf("map aggregation should not stage, got %v", p.Agg.Input.Action)
	}
}

func TestHybridAggregationForLargeDomain(t *testing.T) {
	cat := testCatalog(t)
	// big_id has 200k distinct values: no directory, so hybrid.
	p := buildPlan(t, cat, "SELECT big_id, COUNT(*) FROM big GROUP BY big_id")
	if p.Agg.Alg != HybridAggregation {
		t.Errorf("algorithm = %v, want hybrid", p.Agg.Alg)
	}
	st := &p.Agg.Input
	if st.Action != StagePartitionCoarse || !st.SortPartitions {
		t.Errorf("staging = %v sortPartitions=%v", st.Action, st.SortPartitions)
	}
	if st.Partitions < 2 {
		t.Errorf("partitions = %d, want >= 2", st.Partitions)
	}
}

func TestAggregateSpecs(t *testing.T) {
	cat := testCatalog(t)
	p := buildPlan(t, cat, "SELECT grp, SUM(val) AS total, COUNT(*) AS n, AVG(val) AS mean, MIN(fk), MAX(fk) FROM fact GROUP BY grp")
	a := p.Agg
	if len(a.Aggs) != 5 {
		t.Fatalf("aggs = %d", len(a.Aggs))
	}
	wantKinds := []types.Kind{types.Float, types.Int, types.Float, types.Int, types.Int}
	for i, k := range wantKinds {
		if a.Aggs[i].Kind != k {
			t.Errorf("agg %d kind = %v, want %v", i, a.Aggs[i].Kind, k)
		}
	}
	if !a.Aggs[1].Star {
		t.Error("COUNT(*) star flag missing")
	}
	// Output mapping: first item is the group column.
	if a.Output[0].IsAgg || a.Output[1].Index != 0 {
		t.Errorf("output mapping = %v", a.Output)
	}
	if p.ResultSchema().NumColumns() != 6 {
		t.Errorf("result cols = %d", p.ResultSchema().NumColumns())
	}
}

func TestComputedAggArgBecomesStagedColumn(t *testing.T) {
	cat := testCatalog(t)
	p := buildPlan(t, cat, "SELECT grp, SUM(val * (1 - val)) FROM fact GROUP BY grp")
	st := &p.Agg.Input
	// Staged schema: grp + computed arg.
	if len(st.Cols) != 2 {
		t.Fatalf("staged cols = %d", len(st.Cols))
	}
	if st.Cols[1].Compute == nil {
		t.Error("aggregate argument should be a computed staged column")
	}
	if p.Agg.Aggs[0].Col != 1 {
		t.Errorf("agg arg col = %d", p.Agg.Aggs[0].Col)
	}
}

func TestOrderByAliasAndLimit(t *testing.T) {
	cat := testCatalog(t)
	p := buildPlan(t, cat, "SELECT grp, SUM(val) AS total FROM fact GROUP BY grp ORDER BY total DESC LIMIT 5")
	if p.Sort == nil || len(p.Sort.Keys) != 1 {
		t.Fatal("missing sort")
	}
	k := p.Sort.Keys[0]
	if k.Col != 1 || !k.Desc {
		t.Errorf("sort key = %+v", k)
	}
	if p.Limit != 5 {
		t.Errorf("limit = %d", p.Limit)
	}
}

func TestSelectionPushedIntoJoinStage(t *testing.T) {
	cat := testCatalog(t)
	p := buildPlan(t, cat, "SELECT label FROM fact, dim WHERE fact.dim_id = dim.dim_id AND fact.grp = 7")
	var foundFilter bool
	for i := range p.Joins[0].Inputs {
		st := &p.Joins[0].Inputs[i]
		if st.Input.Base >= 0 && p.Tables[st.Input.Base].Name == "fact" && len(st.Filters) == 1 {
			foundFilter = true
		}
	}
	if !foundFilter {
		t.Error("selection on fact not pushed into its staging")
	}
}

func TestPlanErrors(t *testing.T) {
	cat := testCatalog(t)
	bad := []string{
		"SELECT nope FROM fact",
		"SELECT fk FROM missing",
		"SELECT fact.fk FROM fact, big WHERE fact.val > big.x",      // non-equi join
		"SELECT fact.fk FROM fact, dim WHERE fact.fk = fact.dim_id", // same-table compare
		"SELECT fact.fk FROM fact, dim",                             // cross product
		"SELECT fk FROM fact, big",                                  // ambiguous fk + cross product
		"SELECT val FROM fact GROUP BY grp",                         // val not grouped
		"SELECT grp, SUM(val) FROM fact GROUP BY grp ORDER BY bogus",
	}
	for _, q := range bad {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("parse(%q): %v", q, err)
		}
		if _, err := Build(stmt, cat); err == nil {
			t.Errorf("Build(%q) should fail", q)
		}
	}
}

func TestStarExpansion(t *testing.T) {
	cat := testCatalog(t)
	p := buildPlan(t, cat, "SELECT * FROM dim")
	if got := p.ResultSchema().NumColumns(); got != 2 {
		t.Errorf("star over dim = %d cols, want 2", got)
	}
}

func TestExplainIsReadable(t *testing.T) {
	cat := testCatalog(t)
	p := buildPlan(t, cat, "SELECT grp, SUM(val) FROM fact, dim WHERE fact.dim_id = dim.dim_id GROUP BY grp")
	out := p.Explain()
	for _, want := range []string{"Join[0]", "Aggregate:", "Table[0]"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

// baseInputs collects the Plan.Tables indexes a join reads directly.
func baseInputs(j *Join) map[int]bool {
	m := map[int]bool{}
	for i := range j.Inputs {
		if b := j.Inputs[i].Input.Base; b >= 0 {
			m[b] = true
		}
	}
	return m
}

// TestJoinOrderFollowsEstimates pins the greedy left-deep ordering of
// planBinaryJoins against the catalogue estimates: the starting pair is
// the one minimising estimated output, and each later join extends the
// chain with the cheapest connected table. Table indexes follow FROM
// order: big=0, fact=1, dim=2.
func TestJoinOrderFollowsEstimates(t *testing.T) {
	cat := testCatalog(t)

	// big.x = 5 cuts big to ~200 rows, making big⋈fact (~100 rows) far
	// cheaper than fact⋈dim (~100k rows): the chain must start there and
	// bring dim in last.
	p := buildPlan(t, cat,
		"SELECT label FROM big, fact, dim WHERE big.fk = fact.fk AND fact.dim_id = dim.dim_id AND big.x = 5")
	if len(p.Joins) != 2 {
		t.Fatalf("joins = %d, want 2 (fk and dim_id are distinct key classes)", len(p.Joins))
	}
	first := baseInputs(p.Joins[0])
	if !first[0] || !first[1] {
		t.Errorf("join[0] reads tables %v, want {big, fact} (filtered big starts the chain)", first)
	}
	second := baseInputs(p.Joins[1])
	if !second[2] || len(second) != 1 {
		t.Errorf("join[1] reads base tables %v, want only dim", second)
	}
	found := false
	for i := range p.Joins[1].Inputs {
		if p.Joins[1].Inputs[i].Input.Join == 0 {
			found = true
		}
	}
	if !found {
		t.Error("join[1] does not consume join[0]: plan is not a left-deep chain")
	}

	// Flip the selectivity: dim.label = 'L7' makes fact⋈dim the cheap
	// pair, so the order must reverse.
	p = buildPlan(t, cat,
		"SELECT big.x FROM big, fact, dim WHERE big.fk = fact.fk AND fact.dim_id = dim.dim_id AND dim.label = 'L7'")
	if len(p.Joins) != 2 {
		t.Fatalf("joins = %d, want 2", len(p.Joins))
	}
	first = baseInputs(p.Joins[0])
	if !first[1] || !first[2] {
		t.Errorf("join[0] reads tables %v, want {fact, dim} (filtered dim starts the chain)", first)
	}
	second = baseInputs(p.Joins[1])
	if !second[0] || len(second) != 1 {
		t.Errorf("join[1] reads base tables %v, want only big", second)
	}
}

// TestExplainShowsJoinOrderAndHaving locks the Explain rendering the
// join-order tests (and EXPLAIN users) rely on: one Join line per binary
// join in execution order, and the HAVING conjunction between the
// aggregation and the sort lines.
func TestExplainShowsJoinOrderAndHaving(t *testing.T) {
	cat := testCatalog(t)
	p := buildPlan(t, cat,
		"SELECT grp, COUNT(*) AS n FROM big, fact, dim WHERE big.fk = fact.fk AND fact.dim_id = dim.dim_id AND big.x = 5 GROUP BY grp HAVING n > 3 ORDER BY grp")
	out := p.Explain()
	for _, want := range []string{"Join[0]", "Join[1]", "Having: ", "Aggregate:", "Sort:"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "Join[0]") > strings.Index(out, "Join[1]") {
		t.Errorf("Explain lists joins out of execution order:\n%s", out)
	}
	if !(strings.Index(out, "Aggregate:") < strings.Index(out, "Having: ") &&
		strings.Index(out, "Having: ") < strings.Index(out, "Sort:")) {
		t.Errorf("Explain does not place Having between Aggregate and Sort:\n%s", out)
	}
}

// TestHavingPlanning pins the HAVING lowering: conjuncts resolve to
// result columns by alias or rendered aggregate text, constants fold,
// and the error cases stay typed plan errors.
func TestHavingPlanning(t *testing.T) {
	cat := testCatalog(t)
	p := buildPlan(t, cat, "SELECT grp, COUNT(*) AS n FROM fact GROUP BY grp HAVING n > 2 + 1")
	if len(p.Having) != 1 {
		t.Fatalf("having = %v", p.Having)
	}
	h := p.Having[0]
	if h.Col != 1 || h.Op != sql.CmpGt || h.Val.I != 3 {
		t.Errorf("having filter = %+v (folded constant expected)", h)
	}

	p = buildPlan(t, cat, "SELECT grp, SUM(val) AS s FROM fact GROUP BY grp HAVING SUM(val) > 10.5")
	if len(p.Having) != 1 || p.Having[0].Col != 1 {
		t.Fatalf("aggregate-text resolution failed: %v", p.Having)
	}

	// Flipped operand order: constant on the left.
	p = buildPlan(t, cat, "SELECT grp, COUNT(*) AS n FROM fact GROUP BY grp HAVING 5 < n")
	if len(p.Having) != 1 || p.Having[0].Op != sql.CmpGt || p.Having[0].Val.I != 5 {
		t.Fatalf("flipped having = %v", p.Having)
	}

	bad := []string{
		"SELECT grp FROM fact HAVING grp > 1",                           // no aggregation
		"SELECT grp, COUNT(*) AS n FROM fact GROUP BY grp HAVING x > 1", // not a select output
		"SELECT grp, COUNT(*) AS n FROM fact GROUP BY grp HAVING n > ?", // parameter
	}
	for _, q := range bad {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("parse(%q): %v", q, err)
		}
		if _, err := Build(stmt, cat); err == nil {
			t.Errorf("Build(%q) should fail", q)
		}
	}
}

func TestEvalExpr(t *testing.T) {
	s := types.NewSchema(types.Col("a", types.Int), types.Col("b", types.Float))
	tuple := s.EncodeRow(types.IntDatum(10), types.FloatDatum(2.5))
	a := &ColExpr{Col: 0, Name: "a", K: types.Int}
	bcol := &ColExpr{Col: 1, Name: "b", K: types.Float}
	sum := &ArithExpr{Op: sql.OpAdd, L: a, R: bcol}
	if got := EvalFloat(sum, s, tuple); got != 12.5 {
		t.Errorf("a+b = %g", got)
	}
	mul := &ArithExpr{Op: sql.OpMul, L: a, R: &ConstExpr{D: types.IntDatum(3)}}
	if got := EvalInt(mul, s, tuple); got != 30 {
		t.Errorf("a*3 = %d", got)
	}
	if mul.Kind() != types.Int || sum.Kind() != types.Float {
		t.Error("kind inference wrong")
	}
	cols := ExprColumns(sum)
	if len(cols) != 2 {
		t.Errorf("ExprColumns = %v", cols)
	}
}
