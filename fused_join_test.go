package hique

// Tests for the fused join+aggregation pipeline: two-table equi-joins
// with optional GROUP BY, ORDER BY, and LIMIT must produce byte-identical
// results across all four engines and across the fused/cached/general
// execution routes — literal, parameterized, and index-backed alike. The
// concurrency test runs under -race in CI and doubles as the deadlock
// check for the multi-table (ID-ordered) reader locks against the DML
// path's single-table writer locks.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// joinTestDB builds the analytics fixture: a multi-page fact table and a
// small dimension, the star shape the fused pipeline targets.
func joinTestDB(t *testing.T, options ...Option) *DB {
	t.Helper()
	db := Open(options...)
	if err := db.CreateTable("fact", Int("id"), Int("grp"), Float("price"), Date("day")); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("dim", Int("id"), Char("label", 12), Int("bucket")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		if err := db.Insert("fact", int64(i), int64(i%24), float64(i%700)+0.25, int64(18000+i%45)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 24; i++ {
		if err := db.Insert("dim", int64(i), fmt.Sprintf("dim-%02d", i), int64(i%5)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// joinQueries covers the fused join pipeline's shapes: plain joins,
// residual and parameterized filters (including on the join-key column),
// computed projections, LIMIT, GROUP BY aggregation with every aggregate
// function, group-less aggregates, and ORDER BY tails. Queries without
// ORDER BY join on unique keys so row order is fully determined.
var joinQueries = []struct {
	sql  string
	args []any
}{
	{sql: "SELECT f.id, d.label FROM fact f, dim d WHERE f.grp = d.id ORDER BY f.id"},
	{sql: "SELECT f.id, d.label FROM fact f, dim d WHERE f.grp = d.id AND f.price > 500.0 ORDER BY f.id"},
	{sql: "SELECT f.id, d.label FROM fact f, dim d WHERE f.grp = d.id AND f.price > ? ORDER BY f.id", args: []any{500.0}},
	{sql: "SELECT f.id, d.label, f.price * 2.0 AS p2 FROM fact f, dim d WHERE f.grp = d.id AND d.bucket = 3 ORDER BY f.id"},
	{sql: "SELECT f.id, d.label FROM fact f, dim d WHERE f.grp = d.id AND d.id >= ? ORDER BY f.id", args: []any{12}},
	{sql: "SELECT f.id, d.label FROM fact f, dim d WHERE f.id = d.id"}, // unique-unique: merge order is total
	{sql: "SELECT f.id, d.label FROM fact f, dim d WHERE f.grp = d.id ORDER BY f.id LIMIT 7"},
	{sql: "SELECT f.id, d.label FROM fact f, dim d WHERE f.grp = d.id ORDER BY f.id LIMIT 0"},
	{sql: "SELECT d.label, COUNT(*) AS n, SUM(f.price) AS total FROM fact f, dim d WHERE f.grp = d.id GROUP BY d.label ORDER BY d.label"},
	{sql: "SELECT d.label, MIN(f.id) AS lo, MAX(f.id) AS hi, AVG(f.price) AS mean FROM fact f, dim d WHERE f.grp = d.id AND f.day >= ? GROUP BY d.label ORDER BY d.label", args: []any{"2019-04-20"}},
	{sql: "SELECT d.bucket, SUM(f.price * 0.5) AS half FROM fact f, dim d WHERE f.grp = d.id GROUP BY d.bucket ORDER BY d.bucket"},
	{sql: "SELECT COUNT(*) AS n, SUM(f.price) AS s FROM fact f, dim d WHERE f.grp = d.id AND d.bucket = 1"},
	{sql: "SELECT COUNT(*) AS n FROM fact f, dim d WHERE f.grp = d.id AND d.bucket = ?", args: []any{1}},
	{sql: "SELECT d.label, COUNT(*) AS n FROM fact f, dim d WHERE f.grp = d.id GROUP BY d.label ORDER BY d.label LIMIT 3"},
}

// TestFusedJoinMatchesAllEngines asserts byte-identical results for
// every join shape across (a) all four engines uncached, (b) the cached
// holistic path with auto-parameterization (the fused pipeline), (c) a
// prepared handle with the literals baked in, and (d) index-backed variants (indexes
// on both join keys switch the planner to the merge join, with the
// dimension side streamed off the B+-tree in key order).
func TestFusedJoinMatchesAllEngines(t *testing.T) {
	cachedIndexed := joinTestDB(t, WithPlanCache(64))
	for _, idx := range [][2]string{{"fact", "grp"}, {"fact", "id"}, {"dim", "id"}} {
		if err := cachedIndexed.BuildIndex(idx[0], idx[1]); err != nil {
			t.Fatal(err)
		}
	}
	routes := []route{
		{"cached-auto-param", joinTestDB(t, WithPlanCache(64)).Query},
		{"prepared-literal", preparedLiteralRoute(joinTestDB(t))},
		{"cached-indexed", cachedIndexed.Query},
	}
	uncached := engineDBs(joinTestDB(t).Catalog())
	indexedDB := joinTestDB(t) // index-backed, uncached: every engine sees the merge-selected plan
	for _, idx := range [][2]string{{"fact", "grp"}, {"fact", "id"}, {"dim", "id"}} {
		if err := indexedDB.BuildIndex(idx[0], idx[1]); err != nil {
			t.Fatal(err)
		}
	}
	indexed := engineDBs(indexedDB.Catalog())

	for _, q := range joinQueries {
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
		// The index-backed plan (merge join) must produce the same rows
		// on every engine as the un-indexed plan.
		for _, db := range indexed {
			got, err := db.Query(q.sql, q.args...)
			if err != nil {
				t.Fatalf("%s indexed on %s: %v", q.sql, db.name, err)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("%s: indexed %s diverges:\n got %v\nwant %v", q.sql, db.name, got.Rows, want.Rows)
			}
		}
		for _, r := range routes {
			// Twice: the first call compiles, the second exercises the
			// warm fused path against recycled scratch and frames.
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

// TestGroupByLimitAcrossEngines is the regression test for LIMIT over
// aggregation: LIMIT must bound the *groups emitted*, not the input rows
// — volcano's semantics, which every engine and the fused path must
// share. The ordered variants pin exact rows; the unordered variants pin
// the count and that every emitted row is a real group of the unlimited
// result.
func TestGroupByLimitAcrossEngines(t *testing.T) {
	db := joinTestDB(t)
	engines := engineDBs(db.Catalog())
	cached := joinTestDB(t, WithPlanCache(64))

	cases := []struct {
		limited, full string
		n             int
	}{
		// Single-table aggregation through the general path.
		{"SELECT grp, COUNT(*) AS n FROM fact GROUP BY grp ORDER BY grp LIMIT 4",
			"SELECT grp, COUNT(*) AS n FROM fact GROUP BY grp ORDER BY grp", 4},
		// Join + aggregation through the fused path.
		{"SELECT d.label, COUNT(*) AS n FROM fact f, dim d WHERE f.grp = d.id GROUP BY d.label ORDER BY d.label LIMIT 5",
			"SELECT d.label, COUNT(*) AS n FROM fact f, dim d WHERE f.grp = d.id GROUP BY d.label ORDER BY d.label", 5},
		// LIMIT larger than the group count: everything comes back.
		{"SELECT d.bucket, SUM(f.price) AS s FROM fact f, dim d WHERE f.grp = d.id GROUP BY d.bucket ORDER BY d.bucket LIMIT 500",
			"SELECT d.bucket, SUM(f.price) AS s FROM fact f, dim d WHERE f.grp = d.id GROUP BY d.bucket ORDER BY d.bucket", 5},
	}
	for _, c := range cases {
		var wantFull *Result
		for _, e := range engines {
			full, err := e.Query(c.full)
			if err != nil {
				t.Fatalf("%s on %s: %v", c.full, e.name, err)
			}
			if wantFull == nil {
				wantFull = full
			}
			limited, err := e.Query(c.limited)
			if err != nil {
				t.Fatalf("%s on %s: %v", c.limited, e.name, err)
			}
			n := c.n
			if n > len(full.Rows) {
				n = len(full.Rows)
			}
			if len(limited.Rows) != n {
				t.Fatalf("%s on %s: %d rows, want %d (groups, not input rows)", c.limited, e.name, len(limited.Rows), n)
			}
			if !reflect.DeepEqual(limited.Rows, full.Rows[:n]) {
				t.Fatalf("%s on %s: limited rows are not the first %d groups:\n got %v\nwant %v",
					c.limited, e.name, n, limited.Rows, full.Rows[:n])
			}
		}
		// Warm cached (fused) route agrees with the engines.
		for pass := 0; pass < 2; pass++ {
			limited, err := cached.Query(c.limited)
			if err != nil {
				t.Fatal(err)
			}
			n := c.n
			if n > len(wantFull.Rows) {
				n = len(wantFull.Rows)
			}
			if !reflect.DeepEqual(limited.Rows, wantFull.Rows[:n]) {
				t.Fatalf("%s cached (pass %d): got %v want %v", c.limited, pass, limited.Rows, wantFull.Rows[:n])
			}
		}
	}

	// Unordered GROUP BY ... LIMIT: the emitted rows must be a subset of
	// the unlimited groups, n of them, on every engine and the fused path.
	full, err := db.Query("SELECT d.label, COUNT(*) AS n FROM fact f, dim d WHERE f.grp = d.id GROUP BY d.label")
	if err != nil {
		t.Fatal(err)
	}
	groups := map[string]int64{}
	for _, r := range full.Rows {
		groups[r[0].(string)] = r[1].(int64)
	}
	unordered := "SELECT d.label, COUNT(*) AS n FROM fact f, dim d WHERE f.grp = d.id GROUP BY d.label LIMIT 6"
	check := func(res *Result, via string) {
		t.Helper()
		if len(res.Rows) != 6 {
			t.Fatalf("%s: %d rows, want 6 groups", via, len(res.Rows))
		}
		for _, r := range res.Rows {
			if n, ok := groups[r[0].(string)]; !ok || n != r[1].(int64) {
				t.Fatalf("%s: row %v is not a group of the unlimited result", via, r)
			}
		}
	}
	for _, e := range engines {
		res, err := e.Query(unordered)
		if err != nil {
			t.Fatal(err)
		}
		check(res, "engine "+e.name)
	}
	for pass := 0; pass < 2; pass++ {
		res, err := cached.Query(unordered)
		if err != nil {
			t.Fatal(err)
		}
		check(res, fmt.Sprintf("cached pass %d", pass))
	}
}

// TestConcurrentJoinQueriesWithWriters floods the warm fused join path
// from many goroutines while writers mutate other tables through the DML
// path: the two-table reader locks (acquired in table-ID order) must
// never deadlock against the single-table writer locks, results on the
// untouched pair must stay exact, and -race must stay silent. A second
// query stream hits the pair being written to and asserts only
// well-formedness (its contents change under it by design).
func TestConcurrentJoinQueriesWithWriters(t *testing.T) {
	db := joinTestDB(t, WithPlanCache(128))
	if err := db.CreateTable("hotfact", Int("id"), Int("grp"), Float("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("hotdim", Int("id"), Char("name", 8)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := db.Insert("hotdim", int64(i), fmt.Sprintf("h%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	stable := "SELECT d.label, COUNT(*) AS n, SUM(f.price) AS s FROM fact f, dim d WHERE f.grp = d.id GROUP BY d.label ORDER BY d.label"
	want, err := db.Query(stable)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const iters = 60
	errc := make(chan error, goroutines+2)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var res Result
			for i := 0; i < iters; i++ {
				if err := db.QueryInto(&res, stable); err != nil {
					errc <- err
					return
				}
				if len(res.Rows) != len(want.Rows) {
					errc <- fmt.Errorf("goroutine %d iter %d: %d groups, want %d", g, i, len(res.Rows), len(want.Rows))
					return
				}
				// The hot pair changes underneath: only well-formedness.
				if err := db.QueryInto(&res, "SELECT d.name, COUNT(*) AS n FROM hotfact f, hotdim d WHERE f.grp = d.id GROUP BY d.name"); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 120; i++ {
				if _, err := db.Exec("INSERT INTO hotfact VALUES (?, ?, ?)", w*1000+i, i%8, float64(i)); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	// Quiesced: the stable pair still answers exactly.
	got, err := db.Query(stable)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("stable join drifted under concurrent writers:\n got %v\nwant %v", got.Rows, want.Rows)
	}
}
