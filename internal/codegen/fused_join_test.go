package codegen

import (
	"testing"

	"hique/internal/catalog"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/types"
)

// fusedJoinCatalog builds a two-table star pair big enough for real
// staging decisions plus a third table to prove the multi-join decline.
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

// TestFusedJoinSelection pins which plan shapes the fused join pipeline
// claims: without this, a silent decline would route everything through
// the general walk and the differential tests would pass vacuously.
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
	}
	for _, q := range fused {
		p := buildPlan(t, cat, q)
		if newFusedJoin(p) == nil {
			t.Errorf("fused join declined %q (alg %v)", q, p.Joins[0].Alg)
		}
	}
	// The single-table pipeline sorts a plain projection and filters
	// groups through the same tail.
	for _, q := range []string{
		"SELECT id, price FROM fact WHERE grp = 3 ORDER BY price DESC, id",
		"SELECT id FROM fact WHERE price > ? ORDER BY id LIMIT 7",
		"SELECT grp, COUNT(*) AS n FROM fact GROUP BY grp HAVING n >= 50 ORDER BY grp LIMIT 5",
	} {
		if newFused(buildPlan(t, cat, q)) == nil {
			t.Errorf("single-table pipeline declined %q", q)
		}
	}
	declined := []string{
		// A join team: the fused join loop is binary.
		"SELECT f.id FROM fact f, dim d, ext x WHERE f.grp = d.id AND d.id = x.id",
		// Single table: the single-table pipeline's territory.
		"SELECT id FROM fact WHERE grp = 3",
	}
	for _, q := range declined {
		p := buildPlan(t, cat, q)
		if len(p.Joins) == 1 && newFusedJoin(p) != nil && len(p.Tables) != 2 {
			t.Errorf("fused join accepted %q", q)
		}
		if len(p.Tables) != 2 && newFusedJoin(p) != nil {
			t.Errorf("fused join accepted %q", q)
		}
	}
}

// TestFusedJoinGenerateUsesPipeline proves Generate at -O2 wires the
// fused runner (and that SetFusion(false) restores the general walk).
func TestFusedJoinGenerateUsesPipeline(t *testing.T) {
	cat := fusedJoinCatalog(t)
	p := buildPlan(t, cat, "SELECT d.label, COUNT(*) AS n FROM fact f, dim d WHERE f.grp = d.id GROUP BY d.label ORDER BY d.label")
	if newFusedJoin(p) == nil {
		t.Fatal("plan unexpectedly ineligible")
	}
	q, err := Generate(p, OptO2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	defer want.Release()

	SetFusion(false)
	defer SetFusion(true)
	gq, err := Generate(p, OptO2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := gq.Run()
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()

	if want.NumRows() != got.NumRows() {
		t.Fatalf("fused %d rows, general %d", want.NumRows(), got.NumRows())
	}
	for r := 0; r < want.NumRows(); r++ {
		wt, gt := want.Tuple(r), got.Tuple(r)
		if string(wt) != string(gt) {
			t.Fatalf("row %d: fused %x, general %x", r, wt, gt)
		}
	}
}
