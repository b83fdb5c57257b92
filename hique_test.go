package hique

import (
	"strings"
	"testing"

	"hique/internal/catalog"
	"hique/internal/enginetest"
)

// engineDB is one engine's DB over a shared catalogue.
type engineDB struct {
	name string
	*DB
}

// engineDBs opens one DB per engine of enginetest.DBEngines over cat,
// each with opts: the DB-level differential tests cover all four engines
// this way.
func engineDBs(cat *catalog.Catalog, opts ...Option) []engineDB {
	var dbs []engineDB
	for _, e := range enginetest.DBEngines() {
		dbs = append(dbs, engineDB{e.Name, Open(append([]Option{WithCatalog(cat), WithEngine(e.Engine)}, opts...)...)})
	}
	return dbs
}

func seedDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	if err := db.CreateTable("emp", Int("id"), Char("dept", 8), Float("salary"), Date("hired")); err != nil {
		t.Fatal(err)
	}
	depts := []string{"eng", "sales", "ops"}
	for i := 0; i < 300; i++ {
		if err := db.Insert("emp", i, depts[i%3], float64(1000+i*10), int64(18000+i)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestCreateInsertQuery(t *testing.T) {
	db := seedDB(t)
	res, err := db.Query("SELECT id, salary FROM emp WHERE dept = 'eng' ORDER BY id LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Columns[0] != "id" || res.Columns[1] != "salary" {
		t.Errorf("columns = %v", res.Columns)
	}
	if res.Rows[0][0].(int64) != 0 || res.Rows[1][0].(int64) != 3 {
		t.Errorf("eng ids = %v, %v", res.Rows[0][0], res.Rows[1][0])
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
}

func TestAggregationThroughFacade(t *testing.T) {
	db := seedDB(t)
	res, err := db.Query("SELECT dept, COUNT(*) AS n, AVG(salary) AS mean FROM emp GROUP BY dept ORDER BY dept")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[1].(int64) != 100 {
			t.Errorf("dept %v count = %v", row[0], row[1])
		}
	}
}

func TestAllEnginesThroughFacade(t *testing.T) {
	for _, db := range engineDBs(seedDB(t).Catalog()) {
		res, err := db.Query("SELECT dept, SUM(salary) AS total FROM emp GROUP BY dept ORDER BY total DESC")
		if err != nil {
			t.Fatalf("%s: %v", db.name, err)
		}
		if len(res.Rows) != 3 {
			t.Errorf("%s: groups = %d", db.name, len(res.Rows))
		}
	}
}

func TestExplainAndGeneratedSource(t *testing.T) {
	db := seedDB(t)
	explain, err := db.Explain("SELECT dept, COUNT(*) FROM emp GROUP BY dept")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "Aggregate") {
		t.Errorf("Explain missing aggregate:\n%s", explain)
	}
	src, err := db.GeneratedSource("SELECT dept, COUNT(*) FROM emp GROUP BY dept")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "EvaluateQuery") {
		t.Errorf("generated source missing composer:\n%.200s", src)
	}
}

func TestPrepared(t *testing.T) {
	db := seedDB(t)
	p, err := db.Prepare("SELECT dept, MAX(salary) AS top FROM emp GROUP BY dept ORDER BY dept")
	if err != nil {
		t.Fatal(err)
	}
	if p.GenerateTime() <= 0 || p.CompileTime() <= 0 {
		t.Error("preparation timings missing")
	}
	if !strings.Contains(p.Source(), "package query") {
		t.Error("prepared source missing")
	}
	for i := 0; i < 3; i++ {
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 3 {
			t.Fatalf("run %d: groups = %d", i, len(res.Rows))
		}
	}
}

func TestInsertErrors(t *testing.T) {
	db := Open()
	if err := db.CreateTable("t", Int("a"), Char("s", 4)); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("t", Int("a")); err == nil {
		t.Error("duplicate CreateTable should fail")
	}
	if err := db.Insert("t", 1); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := db.Insert("t", "wrong", "s"); err == nil {
		t.Error("type mismatch should fail")
	}
	if err := db.Insert("missing", 1); err == nil {
		t.Error("insert into unknown table should fail")
	}
}

func TestStatsRefreshAfterInsert(t *testing.T) {
	db := Open()
	if err := db.CreateTable("g", Int("k"), Int("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		db.Insert("g", i%5, i)
	}
	res, err := db.Query("SELECT k, COUNT(*) AS n FROM g GROUP BY k ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	// More inserts with new keys: the writes must keep the directories
	// correct.
	for i := 0; i < 50; i++ {
		db.Insert("g", 5+i%5, i)
	}
	res, err = db.Query("SELECT k, COUNT(*) AS n FROM g GROUP BY k ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("groups after growth = %d, want 10", len(res.Rows))
	}
}

func TestMiscAccessors(t *testing.T) {
	db := seedDB(t)
	if got := db.Tables(); len(got) != 1 || got[0] != "emp" {
		t.Errorf("Tables = %v", got)
	}
	n, err := db.RowCount("emp")
	if err != nil || n != 300 {
		t.Errorf("RowCount = %d, %v", n, err)
	}
	if err := db.BuildIndex("emp", "id"); err != nil {
		t.Errorf("BuildIndex: %v", err)
	}
	if db.EngineName() == "" {
		t.Error("EngineName empty")
	}
}
