package codegen

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hique/internal/catalog"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/tpch"
	"hique/internal/types"
)

func testCatalog() *catalog.Catalog {
	cat := catalog.New()
	rng := rand.New(rand.NewSource(11))

	sales := storage.NewTable("sales", types.NewSchema(
		types.Col("sale_id", types.Int), types.Col("prod", types.Int),
		types.Col("amount", types.Float), types.Col("qty", types.Int)))
	for i := 0; i < 4000; i++ {
		sales.AppendRow(types.IntDatum(int64(i)), types.IntDatum(int64(rng.Intn(40))),
			types.FloatDatum(float64(rng.Intn(500))/4), types.IntDatum(int64(1+rng.Intn(9))))
	}
	cat.Register(sales)

	prods := storage.NewTable("prods", types.NewSchema(
		types.Col("prod_id", types.Int), types.Col("cat", types.Int)))
	for i := 0; i < 40; i++ {
		prods.AppendRow(types.IntDatum(int64(i)), types.IntDatum(int64(i%5)))
	}
	cat.Register(prods)
	return cat
}

func mustPlan(t *testing.T, cat *catalog.Catalog, q string) *plan.Plan {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// rowsAsStrings canonicalises a result for comparison across executors.
func rowsAsStrings(t *storage.Table) []string {
	var out []string
	s := t.Schema()
	t.Scan(func(tp []byte) bool {
		var parts []string
		for i := 0; i < s.NumColumns(); i++ {
			d := s.GetDatum(tp, i)
			if d.Kind == types.Float {
				parts = append(parts, fmt.Sprintf("%.6f", d.F))
			} else {
				parts = append(parts, d.String())
			}
		}
		out = append(out, strings.Join(parts, "|"))
		return true
	})
	return out
}

var testQueries = []string{
	"SELECT sale_id, amount FROM sales WHERE qty > 5",
	"SELECT sale_id, amount * 2 AS dbl FROM sales WHERE prod = 3",
	"SELECT prod, SUM(amount) AS total, COUNT(*) AS n FROM sales GROUP BY prod ORDER BY prod",
	"SELECT prod, SUM(amount * (1 + amount)) AS weird FROM sales GROUP BY prod ORDER BY weird DESC LIMIT 5",
	"SELECT cat, SUM(amount) AS total FROM sales, prods WHERE sales.prod = prods.prod_id GROUP BY cat ORDER BY cat",
	"SELECT sale_id, cat FROM sales, prods WHERE sales.prod = prods.prod_id AND qty = 9 ORDER BY sale_id LIMIT 20",
	"SELECT qty, AVG(amount) AS mean, MIN(sale_id), MAX(sale_id) FROM sales GROUP BY qty ORDER BY qty",
}

func TestGeneratedSourceParses(t *testing.T) {
	cat := testCatalog()
	for _, q := range testQueries {
		p := mustPlan(t, cat, q)
		if _, err := Generate(p, OptO2); err != nil {
			t.Errorf("%s: %v", q, err)
		}
	}
}

func TestGeneratedSourceStructure(t *testing.T) {
	cat := testCatalog()
	p := mustPlan(t, cat, "SELECT cat, SUM(amount) AS total FROM sales, prods WHERE sales.prod = prods.prod_id GROUP BY cat ORDER BY cat")
	src := EmitSource(p)
	for _, want := range []string{
		"package query",
		"stageJoin0Input0",
		"stageJoin0Input1",
		"evalJoin0",
		"evalAggregate",
		"evalOrderBy",
		"EvaluateQuery",
		"DO NOT EDIT",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
	// Offsets must be baked in as literals: no schema lookups at run time.
	if strings.Contains(src, "Schema()") {
		t.Error("generated source contains runtime schema lookups")
	}
}

func TestSourceDeterminism(t *testing.T) {
	cat := testCatalog()
	p := mustPlan(t, cat, testQueries[2])
	a := EmitSource(p)
	b := EmitSource(p)
	if a != b {
		t.Error("EmitSource is not deterministic")
	}
}

func TestTimingsPopulated(t *testing.T) {
	cat := testCatalog()
	p := mustPlan(t, cat, testQueries[4])
	cq, err := Generate(p, OptO2)
	if err != nil {
		t.Fatal(err)
	}
	// Generate builds the closures only: the source rendering is emitted
	// and syntax-checked on first request.
	if cq.Source != "" || cq.Prep.Generate != 0 || cq.Prep.SourceBytes != 0 {
		t.Errorf("Generate produced source eagerly: %d bytes, %+v", len(cq.Source), cq.Prep)
	}
	if err := cq.EnsureSource(); err != nil {
		t.Fatal(err)
	}
	if cq.Prep.SourceBytes <= 0 {
		t.Error("SourceBytes not recorded")
	}
	if cq.Prep.Generate <= 0 || cq.Prep.Compile <= 0 {
		t.Errorf("timings not recorded: %+v", cq.Prep)
	}
	if cq.Prep.SourceBytes != len(cq.Source) {
		t.Error("SourceBytes mismatch")
	}
}

// TestWideCharDirectoryWords pins the emitted directory of a CHAR column
// wider than one word: every customer name starts "Customer", so a
// directory keyed by the first word alone holds one value 150 times.
// Each value must emit all its words, no two values the same, and the
// probe must read them all.
func TestWideCharDirectoryWords(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.001, Seed: 42})
	p := mustPlan(t, cat, "SELECT c_name, COUNT(*) AS n FROM customer GROUP BY c_name")
	if p.Agg == nil || p.Agg.Alg != plan.MapAggregation {
		t.Fatalf("planner chose %v; map expected", p.Agg.Alg)
	}
	src := EmitSource(p)
	_, rest, ok := strings.Cut(src, "dir0 := []uint64{")
	list, _, _ := strings.Cut(rest, "}")
	words := strings.Split(list, ", ")
	const m = 3 // CHAR(18): ⌈18/8⌉ words
	if n := p.Agg.Directories[0].Len(); !ok || len(words) != n*m {
		t.Fatalf("directory 0: emitted %d words, want %d values × %d", len(words), n, m)
	}
	seen := map[string]bool{}
	for i := 0; i < len(words); i += m {
		v := strings.Join(words[i:i+m], ", ")
		if seen[v] {
			t.Errorf("directory 0 holds %s twice", v)
		}
		seen[v] = true
	}
	probe := "runtime.DirIndex(dir0, runtime.CharWord(tuple[0:8]), runtime.CharWord(tuple[8:16]), runtime.CharWord(tuple[16:18]))"
	if !strings.Contains(src, probe) {
		t.Errorf("source lacks the three-word probe %s", probe)
	}
}

func TestOptLevelString(t *testing.T) {
	if OptO2.String() != "-O2" {
		t.Error("OptLevel strings wrong")
	}
}

func TestMapAggregationSourceHasOffsetFormula(t *testing.T) {
	cat := testCatalog()
	// prod has 40 distinct values and qty 9: map aggregation on both.
	p := mustPlan(t, cat, "SELECT prod, qty, COUNT(*) FROM sales GROUP BY prod, qty")
	if p.Agg == nil || p.Agg.Alg != plan.MapAggregation {
		t.Skipf("planner chose %v; map expected", p.Agg.Alg)
	}
	src := EmitSource(p)
	if !strings.Contains(src, "offset formula") {
		t.Error("map aggregation source missing offset formula comment")
	}
	if !strings.Contains(src, "runtime.DirIndex(dir0, ") || !strings.Contains(src, "if g1 < 0 { continue }") {
		t.Error("map aggregation source missing directory lookups")
	}
	// Each directory is emitted as data: one key word per Int value.
	for i, d := range p.Agg.Directories {
		_, rest, ok := strings.Cut(src, fmt.Sprintf("dir%d := []uint64{", i))
		words, _, _ := strings.Cut(rest, "}")
		if n := len(strings.Split(words, ", ")); !ok || n != d.Len() {
			t.Errorf("directory %d: emitted %d words, want %d", i, n, d.Len())
		}
	}
}
