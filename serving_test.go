package hique

// Tests for the query-serving subsystem: plan-cache behaviour (hits skip
// preparation, stale plans self-invalidate on inserts / index builds /
// DDL) and concurrency of the public DB surface (run with -race).

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hique/internal/codegen"
	"hique/internal/enginetest"
	"hique/internal/morsel"
)

func cachedDB(t *testing.T) *DB {
	t.Helper()
	db := Open(WithPlanCache(16))
	if err := db.CreateTable("orders", Int("id"), Int("grp"), Float("amount")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.Insert("orders", int64(i), int64(i%4), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestWarmCacheSkipsPreparation pins the acceptance criterion: the
// second execution of an identical statement is served from the plan
// cache (a hit, no recompile), and equal results come back.
func TestWarmCacheSkipsPreparation(t *testing.T) {
	db := cachedDB(t)
	const q = "SELECT grp, COUNT(*) AS n FROM orders GROUP BY grp ORDER BY grp"

	cold, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.Cache.Misses != 1 || s.Cache.Hits != 0 || s.Cache.Entries != 1 {
		t.Fatalf("after cold query: %+v", s.Cache)
	}

	warm, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	s = db.Stats()
	if s.Cache.Hits != 1 || s.Cache.Misses != 1 {
		t.Fatalf("after warm query: %+v", s.Cache)
	}
	if fmt.Sprint(cold.Rows) != fmt.Sprint(warm.Rows) {
		t.Fatalf("warm rows %v != cold rows %v", warm.Rows, cold.Rows)
	}

	// Normalisation: case and spacing differences share one entry.
	if _, err := db.Query("select   GRP, count(*) AS n from ORDERS group by grp order by grp"); err != nil {
		t.Fatal(err)
	}
	s = db.Stats()
	if s.Cache.Hits != 2 || s.Cache.Entries != 1 {
		t.Fatalf("normalised variant should hit the same entry: %+v", s.Cache)
	}
}

// TestCacheInvalidationOnCreateTable: DDL bumps the catalogue version,
// so every cached plan (conservatively) recompiles rather than risking
// a stale name binding.
func TestCacheInvalidationOnCreateTable(t *testing.T) {
	db := cachedDB(t)
	const q = "SELECT COUNT(*) AS n FROM orders"

	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("orders_new", Int("id")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.Cache.Invalidations == 0 {
		t.Fatalf("CreateTable should have invalidated cached plans: %+v", s.Cache)
	}
}

// TestConcurrentInsertQuery is the -race regression for the serving
// subsystem's locking: concurrent writers (Insert with its statistics upkeep)
// and readers (Query through the plan cache) on the same table must not
// race, and every query must observe an internally consistent snapshot.
func TestConcurrentInsertQuery(t *testing.T) {
	db := Open(WithPlanCache(16))
	if err := db.CreateTable("t", Int("id"), Int("grp")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := db.Insert("t", int64(i), int64(i%3)); err != nil {
			t.Fatal(err)
		}
	}

	const writers, readers, perWorker = 4, 4, 50
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := db.Insert("t", int64(1000+w*perWorker+i), int64(i%3)); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				res, err := db.Query("SELECT grp, COUNT(*) AS n FROM t GROUP BY grp")
				if err != nil {
					errc <- err
					return
				}
				// The snapshot must be internally consistent: group
				// counts sum to a row count the table passed through.
				var sum int64
				for _, row := range res.Rows {
					sum += row[1].(int64)
				}
				if sum < 50 || sum > 50+writers*perWorker {
					errc <- fmt.Errorf("inconsistent snapshot: %d rows", sum)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	res, err := db.Query("SELECT COUNT(*) AS n FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(int64); got != 50+writers*perWorker {
		t.Fatalf("final rows = %d, want %d", got, 50+writers*perWorker)
	}
}

// TestGrouplessAggregateAllEngines pins the zero-width-tuple staging
// path (COUNT(*)/SUM with no GROUP BY) on every engine; it used to
// panic on all of them.
func TestGrouplessAggregateAllEngines(t *testing.T) {
	for _, db := range engineDBs(cachedDB(t).Catalog(), WithPlanCache(16)) {
		e := db.name
		res, err := db.Query("SELECT COUNT(*) AS n, SUM(amount) AS total FROM orders")
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("%v: rows = %d, want 1", e, len(res.Rows))
		}
		if n := res.Rows[0][0].(int64); n != 100 {
			t.Fatalf("%v: count = %d, want 100", e, n)
		}
		if total := res.Rows[0][1].(float64); total != 4950 {
			t.Fatalf("%v: sum = %v, want 4950", e, total)
		}

		// Empty input: SQL still requires one identity row (COUNT = 0).
		res, err = db.Query("SELECT COUNT(*) AS n, SUM(amount) AS total FROM orders WHERE amount < 0.0")
		if err != nil {
			t.Fatalf("%v (empty): %v", e, err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("%v (empty): rows = %d, want 1", e, len(res.Rows))
		}
		if n := res.Rows[0][0].(int64); n != 0 {
			t.Fatalf("%v (empty): count = %d, want 0", e, n)
		}
	}
}

// TestInjectedEnginesServeFromCache: every engine takes the one prepare
// → cache → lease path. With the plan cache on, a literal-varying
// statement repeated on an injected engine is served from the cache and
// returns the default engine's rows; a write to its table re-prepares it
// rather than serving the stale artefact.
func TestInjectedEnginesServeFromCache(t *testing.T) {
	const q = "SELECT grp, COUNT(*) AS n, SUM(amount) AS s FROM orders WHERE id < %d GROUP BY grp ORDER BY grp"
	for _, e := range enginetest.DBEngines()[1:] {
		t.Run(e.Name, func(t *testing.T) {
			ref := cachedDB(t)
			db := Open(WithCatalog(ref.Catalog()), WithEngine(e.Engine), WithPlanCache(16))
			// run executes the statement on db, compares it with the
			// default engine, and returns the cache counters it moved.
			run := func(limit int) (hits, invalidations uint64) {
				t.Helper()
				stmt := fmt.Sprintf(q, limit)
				want, err := ref.Query(stmt)
				if err != nil {
					t.Fatal(err)
				}
				before := db.Stats().Cache
				got, err := db.Query(stmt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Fatalf("id < %d: got %v\nwant %v", limit, got.Rows, want.Rows)
				}
				after := db.Stats().Cache
				return after.Hits - before.Hits, after.Invalidations - before.Invalidations
			}
			run(10)
			for _, limit := range []int{50, 90} {
				if hits, _ := run(limit); hits != 1 {
					t.Fatalf("id < %d: %d cache hits, want 1", limit, hits)
				}
			}
			if err := db.Insert("orders", 5, 1, 1000.0); err != nil {
				t.Fatal(err)
			}
			if hits, inv := run(20); hits != 0 || inv != 1 {
				t.Fatalf("after a write: %d hits, %d invalidations; want a re-prepare (0, 1)", hits, inv)
			}
			if hits, _ := run(30); hits != 1 {
				t.Fatalf("after the re-prepare: %d cache hits, want 1", hits)
			}
		})
	}
}

// TestCacheSurvivesUnrelatedWrites pins the per-table invalidation
// scope: a hot writer on one table must not evict cached plans over
// other tables (a global version counter would collapse the hit rate).
func TestCacheSurvivesUnrelatedWrites(t *testing.T) {
	db := cachedDB(t)
	if err := db.CreateTable("hot", Int("x")); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT grp, COUNT(*) AS n FROM orders GROUP BY grp ORDER BY grp"
	if _, err := db.Query(q); err != nil { // compile + cache
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := db.Insert("hot", int64(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Query("SELECT COUNT(*) AS n FROM hot"); err != nil { // re-prepares over hot's new version
			t.Fatal(err)
		}
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	s := db.Stats()
	// Only the hot-table plan recompiles: its first round is a compile
	// miss, the remaining 9 rounds are invalidations. The orders plan
	// must keep hitting all 10 rounds.
	if s.Cache.Invalidations != 9 {
		t.Fatalf("invalidations = %d, want 9 (hot only): %+v", s.Cache.Invalidations, s.Cache)
	}
	if s.Cache.Hits != 10 {
		t.Fatalf("orders plan should hit every round: %+v", s.Cache)
	}
}

// TestConcurrentDDLAndQuery mixes CreateTable / BuildIndex with cached
// queries; every path must stay race-free and correct.
func TestConcurrentDDLAndQuery(t *testing.T) {
	db := cachedDB(t)
	var wg sync.WaitGroup
	errc := make(chan error, 3)
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := db.CreateTable(fmt.Sprintf("aux_%d", i), Int("x")); err != nil {
				errc <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		if err := db.BuildIndex("orders", "id"); err != nil {
			errc <- err
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if _, err := db.Query("SELECT id FROM orders WHERE id < 10"); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestQueryRacesTableCreation queries a table while another goroutine
// creates it and immediately floods it with inserts: the query must
// either fail cleanly with "unknown table" or run fully locked against
// the new table — never scan it unlocked (caught by -race).
func TestQueryRacesTableCreation(t *testing.T) {
	for round := 0; round < 20; round++ {
		db := Open(WithPlanCache(8))
		name := fmt.Sprintf("born_%d", round)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := db.CreateTable(name, Int("x")); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 200; i++ {
				if err := db.Insert(name, int64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, err := db.Query("SELECT COUNT(*) AS n FROM " + name)
				if err != nil {
					continue // not yet created: a clean failure is fine
				}
				if n := res.Rows[0][0].(int64); n < 0 || n > 200 {
					t.Errorf("impossible count %d", n)
					return
				}
			}
		}()
		wg.Wait()
	}
}

// TestConcurrentInsertParallelScanAggregate is the -race regression for
// the morsel-parallel scan → aggregate: readers fold a table of several
// morsels on private per-chunk accumulators while a writer inserts into
// it. Workers take no locks of their own — the reader's table lock pins
// the pages for the whole phase — so every reply must be a consistent
// snapshot: group counts summing to a row count the table passed through.
func TestConcurrentInsertParallelScanAggregate(t *testing.T) {
	prev := codegen.SetParallelThreshold(1)
	defer codegen.SetParallelThreshold(prev)
	const seeded, inserts, readers, perReader = 3*morsel.Rows + 17, 24, 3, 8
	db := Open(WithPlanCache(16), WithParallelism(4))
	if err := db.CreateTable("pt", Int("id"), Int("grp"), Float("v")); err != nil {
		t.Fatal(err)
	}
	const batch = 64
	stmt := "INSERT INTO pt VALUES (?, ?, ?)" + strings.Repeat(", (?, ?, ?)", batch-1)
	for i := 0; i < seeded; i += batch {
		args := make([]any, 0, 3*batch)
		for k := i; k < i+batch; k++ {
			args = append(args, k, k%5, float64(k%64)/8)
		}
		if _, err := db.Exec(stmt, args...); err != nil {
			t.Fatal(err)
		}
	}
	loaded := (seeded + batch - 1) / batch * batch
	q0, _ := morsel.Stats()
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < inserts; i++ {
			if err := db.Insert("pt", int64(1_000_000+i), int64(i%5), 0.5); err != nil {
				errc <- err
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var res Result
			for i := 0; i < perReader; i++ {
				if err := db.QueryInto(&res, "SELECT grp, COUNT(*) AS n, SUM(v) AS s FROM pt WHERE id >= 0 GROUP BY grp ORDER BY grp"); err != nil {
					errc <- err
					return
				}
				var sum int64
				for _, row := range res.Rows {
					sum += row[1].(int64)
				}
				if len(res.Rows) != 5 || sum < int64(loaded) || sum > int64(loaded+inserts) {
					errc <- fmt.Errorf("inconsistent snapshot: %d groups, %d rows", len(res.Rows), sum)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if q1, _ := morsel.Stats(); q1 == q0 {
		t.Fatal("no reader ran a parallel phase")
	}
}
