package hique

// Tests for the zero-allocation warm path: the fused single-table
// pipeline, the page/table arena, and the pooled execution copies. The
// fast path is an optimisation the generator selects, never a semantic
// fork, so every query here is asserted byte-identical across all five
// engines and across the fused/cached/general execution routes; the
// concurrency tests run under -race in CI.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/types"
)

// poolTestDB builds the shared fixture: integers, floats, fixed-width
// strings, and a date column, enough rows for multi-page staging.
func poolTestDB(t *testing.T, options ...Option) *DB {
	t.Helper()
	db := Open(options...)
	if err := db.CreateTable("pts", Int("id"), Float("v"), Char("name", 12), Date("d")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1200; i++ {
		if err := db.Insert("pts", int64(i), float64(i)*0.5, fmt.Sprintf("row-%04d", i%97), int64(18000+i%30)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// fastPathQueries covers the shapes the fused pipeline accepts (point
// and range predicates, residual filters, computed projections, LIMIT,
// identity projection) and the shapes it must decline (string
// parameters, ORDER BY, aggregation) — all must agree everywhere.
var fastPathQueries = []struct {
	sql  string
	args []any
}{
	{sql: "SELECT v FROM pts WHERE id = 57"},
	{sql: "SELECT v FROM pts WHERE id = ?", args: []any{57}},
	{sql: "SELECT id, v FROM pts WHERE id >= 100 AND v < 75.0"},
	{sql: "SELECT id, v FROM pts WHERE id >= ? AND v < ?", args: []any{100, 75.0}},
	{sql: "SELECT v FROM pts WHERE name = 'row-0042'"},
	{sql: "SELECT v FROM pts WHERE name = ?", args: []any{"row-0042"}},
	{sql: "SELECT id FROM pts WHERE d = DATE '2019-04-18'"},
	{sql: "SELECT id FROM pts WHERE id < 10 LIMIT 3"},
	{sql: "SELECT id FROM pts WHERE id < 10 LIMIT 0"},
	{sql: "SELECT id, v, name, d FROM pts"},
	{sql: "SELECT v * 2.0 AS dv FROM pts WHERE id = 3"},
	{sql: "SELECT id FROM pts WHERE v > 590.0 ORDER BY id DESC"},
	{sql: "SELECT COUNT(*) AS n, SUM(v) AS sv FROM pts WHERE id < 500"},
	{sql: "SELECT COUNT(*) AS n FROM pts WHERE id = -1"},
}

// route is one way of executing a statement in the route-equivalence
// tests (here and in fused_join_test.go).
type route struct {
	name string
	run  func(sql string, args ...any) (*Result, error)
}

// preparedLiteralRoute runs each statement through
// Prepare(text).Run(args...), keeping one handle per text so a repeated
// statement exercises the warm handle. Prepare plans the text as given:
// literals stay baked in, which keeps the literal-specialised fused
// pipelines covered now that the plan cache always lifts them.
func preparedLiteralRoute(db *DB) func(string, ...any) (*Result, error) {
	handles := map[string]*Prepared{}
	return func(q string, args ...any) (*Result, error) {
		pr := handles[q]
		if pr == nil {
			var err error
			if pr, err = db.Prepare(q); err != nil {
				return nil, err
			}
			handles[q] = pr
		}
		return pr.Run(args...)
	}
}

// TestFastPathMatchesAllEngines asserts byte-identical results for every
// query shape across (a) all four engines uncached, (b) the cached
// holistic path with auto-parameterization (the fused pipeline), (c) a
// prepared handle with the literals baked in, and (d) an
// index-accelerated variant.
func TestFastPathMatchesAllEngines(t *testing.T) {
	cachedIndexed := poolTestDB(t, WithPlanCache(64))
	if err := cachedIndexed.BuildIndex("pts", "id"); err != nil {
		t.Fatal(err)
	}
	routes := []route{
		{"cached-auto-param", poolTestDB(t, WithPlanCache(64)).Query},
		{"prepared-literal", preparedLiteralRoute(poolTestDB(t))},
		{"cached-indexed", cachedIndexed.Query},
	}
	uncached := engineDBs(poolTestDB(t).Catalog())

	for _, q := range fastPathQueries {
		var want *Result
		for _, db := range uncached {
			got, err := db.Query(q.sql, q.args...)
			if err != nil {
				t.Fatalf("%s on %s: %v", q.sql, db.name, err)
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("%s: engine %s diverges:\n got %v\nwant %v", q.sql, db.name, got.Rows, want.Rows)
			}
		}
		for _, r := range routes {
			// Twice: the first call compiles, the second exercises the
			// warm (fused or pooled) path against recycled frames.
			for pass := 0; pass < 2; pass++ {
				got, err := r.run(q.sql, q.args...)
				if err != nil {
					t.Fatalf("%s via %s: %v", q.sql, r.name, err)
				}
				if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Fatalf("%s via %s (pass %d) diverges:\n got %v\nwant %v", q.sql, r.name, pass, got.Rows, want.Rows)
				}
			}
		}
	}
}

// TestQueryIntoReuse drives one Result through repeated QueryInto calls
// and checks each materialisation is complete and correct.
func TestQueryIntoReuse(t *testing.T) {
	db := poolTestDB(t, WithPlanCache(64))
	var res Result
	for i := 0; i < 50; i++ {
		id := int64(i * 7 % 1200)
		if err := db.QueryInto(&res, "SELECT id, v FROM pts WHERE id = ?", id); err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != id || res.Rows[0][1] != float64(id)*0.5 {
			t.Fatalf("iteration %d: got %v", i, res.Rows)
		}
	}
	// A wider result after narrow ones must regrow cleanly.
	if err := db.QueryInto(&res, "SELECT id, v, name, d FROM pts WHERE id < 100"); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 100 || len(res.Rows[41]) != 4 || res.Rows[41][2] != "row-0041" {
		t.Fatalf("wide reuse: %d rows, row41=%v", len(res.Rows), res.Rows[41])
	}
}

// TestConcurrentPreparedRunPooled floods the pooled execution path from
// many goroutines: every Prepared.Run draws bind scratch, result frames,
// and query scratch from the shared pools, so any page visible to two
// in-flight queries shows up as a wrong value (and as a race under
// -race). A concurrent writer on an unrelated table keeps the
// invalidation machinery busy at the same time.
func TestConcurrentPreparedRunPooled(t *testing.T) {
	db := poolTestDB(t, WithPlanCache(64))
	if err := db.CreateTable("noise", Int("n")); err != nil {
		t.Fatal(err)
	}

	pr, err := db.Prepare("SELECT id, v FROM pts WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const iters = 150
	errc := make(chan error, goroutines+1)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var res Result
			for i := 0; i < iters; i++ {
				id := int64((g*31 + i*17) % 1200)
				// Alternate the prepared handle and the cached Query
				// path so both pooled routes run concurrently.
				if i%2 == 0 {
					if err := pr.RunInto(&res, id); err != nil {
						errc <- err
						return
					}
				} else {
					if err := db.QueryInto(&res, "SELECT id, v FROM pts WHERE id = ?", id); err != nil {
						errc <- err
						return
					}
				}
				if len(res.Rows) != 1 || res.Rows[0][0] != id || res.Rows[0][1] != float64(id)*0.5 {
					errc <- fmt.Errorf("goroutine %d iter %d: id %d got %v", g, i, id, res.Rows)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if err := db.Insert("noise", int64(i)); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestLiftedDatumMatchesLiteralDatum pins the warm path's AST-free
// literal coercion (liftedDatum) to plan.LiteralDatum, the single
// source of truth the literal-specialized fallback uses: every
// (literal, column-kind) pair must coerce to the same datum, or fail on
// both sides. A divergence would make the same SQL behave differently
// depending on cache state.
func TestLiftedDatumMatchesLiteralDatum(t *testing.T) {
	lits := []sql.LiftedLit{
		{Kind: sql.LitInt, I: 42},
		{Kind: sql.LitInt, I: -1},
		{Kind: sql.LitFloat, F: 2.5},
		{Kind: sql.LitDate, I: 18300, S: "2020-02-08"},
		{Kind: sql.LitString, S: "abc"},
	}
	kinds := []types.Kind{types.Int, types.Float, types.Date, types.String}
	for _, l := range lits {
		for _, k := range kinds {
			got, gotOK := liftedDatum(l, k)
			want, wantErr := plan.LiteralDatum(l.Expr(), k)
			if gotOK != (wantErr == nil) {
				t.Fatalf("%+v vs %v: liftedDatum ok=%v, LiteralDatum err=%v", l, k, gotOK, wantErr)
			}
			if gotOK && got != want {
				t.Fatalf("%+v vs %v: liftedDatum %+v, LiteralDatum %+v", l, k, got, want)
			}
		}
	}
}

// TestArenaBalanceReturnsToZero is the pool-leak check: every frame the
// serving paths draw from the page arena must be returned once the
// queries complete, across the fused pipeline, the general staged
// engine (joins, sorts, limits, aggregates), prepared statements, and
// the index probe path.
func TestArenaBalanceReturnsToZero(t *testing.T) {
	db := poolTestDB(t, WithPlanCache(64))
	if err := db.CreateTable("dims", Int("id"), Char("label", 8)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := db.Insert("dims", int64(i), fmt.Sprintf("d%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildIndex("pts", "id"); err != nil {
		t.Fatal(err)
	}
	// Warm everything once so pool growth from first-time compilation
	// does not blur the balance below.
	warm := func() {
		queries := []struct {
			sql  string
			args []any
		}{
			{sql: "SELECT v FROM pts WHERE id = ?", args: []any{7}},
			{sql: "SELECT id, v FROM pts WHERE v > 500.0 ORDER BY v DESC LIMIT 5"},
			{sql: "SELECT d.label, COUNT(*) AS n FROM pts p, dims d WHERE p.id = d.id GROUP BY d.label ORDER BY d.label"},
			{sql: "SELECT id, v, name, d FROM pts"},
		}
		for _, q := range queries {
			if _, err := db.Query(q.sql, q.args...); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm()

	before, _ := storage.ArenaStats()
	warm()
	pr, err := db.Prepare("SELECT v FROM pts WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := pr.Run(i); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := storage.ArenaStats()
	if after != before {
		t.Fatalf("arena frames leaked: in-use went %d -> %d over a release-balanced workload", before, after)
	}
}
