package codegen

import (
	"strings"
	"testing"

	"hique/internal/catalog"
	"hique/internal/core"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/types"
)

// fusedJoinCatalog builds a two-table star pair big enough for real
// staging decisions plus a third table sharing the key class: a join
// team.
func fusedJoinCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	fact := storage.NewTable("fact", types.NewSchema(
		types.Col("id", types.Int), types.Col("grp", types.Int),
		types.Col("price", types.Float)))
	for i := 0; i < 800; i++ {
		fact.AppendRow(types.IntDatum(int64(i)), types.IntDatum(int64(i%16)), types.FloatDatum(float64(i)))
	}
	cat.Register(fact)
	dim := storage.NewTable("dim", types.NewSchema(
		types.Col("id", types.Int), types.CharCol("label", 8)))
	for i := 0; i < 16; i++ {
		dim.AppendRow(types.IntDatum(int64(i)), types.StringDatum("d"))
	}
	cat.Register(dim)
	ext := storage.NewTable("ext", types.NewSchema(
		types.Col("id", types.Int), types.Col("w", types.Float)))
	for i := 0; i < 32; i++ {
		ext.AppendRow(types.IntDatum(int64(i)), types.FloatDatum(1))
	}
	cat.Register(ext)
	return cat
}

func buildPlan(t *testing.T, cat *catalog.Catalog, query string) *plan.Plan {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	p, err := plan.Build(stmt, cat)
	if err != nil {
		t.Fatalf("plan %q: %v", query, err)
	}
	return p
}

// runWalk runs p through core's operator walk, the differential oracle,
// on a copy bound to params.
func runWalk(t *testing.T, p *plan.Plan, params ...types.Datum) *storage.Table {
	t.Helper()
	bp, err := p.Bind(params)
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.NewEngine().Execute(bp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFusedJoinSelection pins the plan shapes the fused join pipeline
// claims — binary joins and join teams — and that a plan outside them is
// an error naming its shape.
func TestFusedJoinSelection(t *testing.T) {
	cat := fusedJoinCatalog(t)
	fused := []string{
		"SELECT f.id, d.label FROM fact f, dim d WHERE f.grp = d.id",
		"SELECT f.id, d.label FROM fact f, dim d WHERE f.grp = d.id AND f.price > 10.0",
		"SELECT f.id, d.label FROM fact f, dim d WHERE f.grp = d.id AND f.price > ?",
		"SELECT f.id, d.label FROM fact f, dim d WHERE f.grp = d.id LIMIT 5",
		"SELECT f.id, d.label FROM fact f, dim d WHERE f.grp = d.id ORDER BY f.id",
		"SELECT d.label, COUNT(*) AS n, SUM(f.price) AS s FROM fact f, dim d WHERE f.grp = d.id GROUP BY d.label",
		"SELECT d.label, COUNT(*) AS n FROM fact f, dim d WHERE f.grp = d.id GROUP BY d.label ORDER BY d.label LIMIT 3",
		"SELECT COUNT(*) AS n FROM fact f, dim d WHERE f.grp = d.id",
		"SELECT d.label, MIN(f.id) AS lo, MAX(f.price) AS hi, AVG(f.price) AS m FROM fact f, dim d WHERE f.grp = d.id GROUP BY d.label",
		// A parameterized string filter compares the bound value in place.
		"SELECT f.id FROM fact f, dim d WHERE f.grp = d.id AND d.label = ?",
		// HAVING filters the emitted groups in the shared result tail.
		"SELECT d.label, COUNT(*) AS n FROM fact f, dim d WHERE f.grp = d.id GROUP BY d.label HAVING n > 10 ORDER BY n DESC LIMIT 2",
		// A join team: one join of three inputs on one key class.
		"SELECT f.id FROM fact f, dim d, ext x WHERE f.grp = d.id AND d.id = x.id",
		"SELECT d.label, SUM(x.w) AS w FROM fact f, dim d, ext x WHERE f.grp = d.id AND d.id = x.id GROUP BY d.label",
	}
	for _, q := range fused {
		p := buildPlan(t, cat, q)
		if _, err := newFusedJoin(p); err != nil {
			t.Errorf("fused join declined %q (alg %v): %v", q, p.Joins[0].Alg, err)
		}
	}
	// The single-table pipeline sorts a plain projection and filters
	// groups through the same tail.
	for _, q := range []string{
		"SELECT id, price FROM fact WHERE grp = 3 ORDER BY price DESC, id",
		"SELECT id FROM fact WHERE price > ? ORDER BY id LIMIT 7",
		"SELECT grp, COUNT(*) AS n FROM fact GROUP BY grp HAVING n >= 50 ORDER BY grp LIMIT 5",
	} {
		if _, err := newFused(buildPlan(t, cat, q)); err != nil {
			t.Errorf("single-table pipeline declined %q: %v", q, err)
		}
	}
	// A join input staged for another algorithm than the join's.
	p := buildPlan(t, cat, fused[0])
	p.Joins[0].Inputs[1].Action = plan.StageNone
	if _, err := Generate(p, OptO2); err == nil || !strings.Contains(err.Error(), "no fused pipeline for join 0") {
		t.Errorf("Generate on a mis-staged join: %v, want the shape named", err)
	}
}

// TestFusedJoinGenerateUsesPipeline proves Generate at -O2 wires the
// fused runner, and that it returns the walk's rows in the walk's order.
func TestFusedJoinGenerateUsesPipeline(t *testing.T) {
	cat := fusedJoinCatalog(t)
	p := buildPlan(t, cat, "SELECT d.label, COUNT(*) AS n FROM fact f, dim d WHERE f.grp = d.id GROUP BY d.label ORDER BY d.label")
	q, err := Generate(p, OptO2)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Fused || q.Path != "fused" {
		t.Fatalf("Generate compiled fused=%v path=%q", q.Fused, q.Path)
	}
	got, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()
	want := runWalk(t, p)
	if want.NumRows() != got.NumRows() {
		t.Fatalf("fused %d rows, walk %d", got.NumRows(), want.NumRows())
	}
	for r := 0; r < want.NumRows(); r++ {
		wt, gt := want.Tuple(r), got.Tuple(r)
		if string(wt) != string(gt) {
			t.Fatalf("row %d: fused %x, walk %x", r, gt, wt)
		}
	}
}
