package hique

// Tests for the one read path: every SELECT entry point leases its
// prepared artefact through DB.lease, so one table-driven matrix covers
// all of them — first run, warm hit, re-prepare after a write or an
// index build on a referenced table, survival of changes to
// unrelated tables, value directories gaining and losing values, and 1-
// to 4-table statements including a self join —
// always against the optimized-iterators reference rows.

import (
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"hique/internal/codegen"
	"hique/internal/core"
	"hique/internal/enginetest"
	"hique/internal/plan"
	"hique/internal/storage"
	"hique/internal/tpch"
)

// matrixDB builds a four-table chain t1 → t2 → t3 → t4 plus an unrelated
// table, small enough that the whole matrix stays fast.
func matrixDB(t testing.TB, options ...Option) *DB {
	t.Helper()
	db := Open(options...)
	for _, ddl := range []struct {
		name string
		cols []Column
	}{
		{"t1", []Column{Int("id"), Int("g"), Int("k2")}},
		{"t2", []Column{Int("id"), Int("k3")}},
		{"t3", []Column{Int("id"), Int("k4")}},
		{"t4", []Column{Int("id"), Int("w")}},
		{"other", []Column{Int("x")}},
	} {
		if err := db.CreateTable(ddl.name, ddl.cols...); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		if err := db.Insert("t1", i, i%5, i%12); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		if err := db.Insert("t2", i, i%6); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if err := db.Insert("t3", i, i%3); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := db.Insert("t4", i, 10*i); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// matrixStatements all group by t1.g, so a row inserted into t1 with an
// unseen g must surface as a new group — which a stale plan's baked value
// directory would drop. tables counts distinct catalogue entries.
var matrixStatements = []struct {
	name   string
	sql    string
	tables int
}{
	{"1-table", "SELECT g, COUNT(*) AS n FROM t1 GROUP BY g ORDER BY g", 1},
	{"2-table-self-join", "SELECT x.g, COUNT(*) AS n FROM t1 x, t1 y WHERE x.id = y.id GROUP BY x.g ORDER BY x.g", 1},
	{"2-table", "SELECT t1.g, COUNT(*) AS n FROM t1, t2 WHERE t1.k2 = t2.id GROUP BY t1.g ORDER BY t1.g", 2},
	{"3-table", "SELECT t1.g, COUNT(*) AS n FROM t1, t2, t3 WHERE t1.k2 = t2.id AND t2.k3 = t3.id GROUP BY t1.g ORDER BY t1.g", 3},
	{"4-table", "SELECT t1.g, SUM(t4.w) AS w FROM t1, t2, t3, t4 WHERE t1.k2 = t2.id AND t2.k3 = t3.id AND t3.k4 = t4.id GROUP BY t1.g ORDER BY t1.g", 4},
}

// matrixRunner is one entry point bound to one statement. run returns the
// rows (nil for ExplainAnalyze, which reports only the count); prepares
// reports how often the statement has been prepared so far, or -1 when
// the entry point prepares on every run.
type matrixRunner struct {
	run      func() (rows [][]any, n int, err error)
	prepares func() int
}

func cacheMisses(db *DB) func() int {
	return func() int { return int(db.Stats().Cache.Misses) }
}

// handleSwaps counts the distinct artefacts a Prepared handle has held.
func handleSwaps(pr *Prepared) func() int {
	last, n := pr.current(), 1
	return func() int {
		if cur := pr.current(); cur != last {
			last = cur
			n++
		}
		return n
	}
}

var matrixEntryPoints = []struct {
	name string
	bind func(t *testing.T, db *DB, sql string, tables int) matrixRunner
}{
	{"Query", func(t *testing.T, db *DB, sql string, _ int) matrixRunner {
		return matrixRunner{prepares: cacheMisses(db), run: func() ([][]any, int, error) {
			res, err := db.Query(sql)
			if err != nil {
				return nil, 0, err
			}
			return res.Rows, len(res.Rows), nil
		}}
	}},
	{"QueryInto", func(t *testing.T, db *DB, sql string, _ int) matrixRunner {
		var res Result // reused across every step
		return matrixRunner{prepares: cacheMisses(db), run: func() ([][]any, int, error) {
			err := db.QueryInto(&res, sql)
			return res.Rows, len(res.Rows), err
		}}
	}},
	{"Prepared.Run", func(t *testing.T, db *DB, sql string, tables int) matrixRunner {
		pr := mustPrepare(t, db, sql, tables)
		return matrixRunner{prepares: handleSwaps(pr), run: func() ([][]any, int, error) {
			res, err := pr.Run()
			if err != nil {
				return nil, 0, err
			}
			return res.Rows, len(res.Rows), nil
		}}
	}},
	{"Prepared.RunInto", func(t *testing.T, db *DB, sql string, tables int) matrixRunner {
		pr := mustPrepare(t, db, sql, tables)
		var res Result
		return matrixRunner{prepares: handleSwaps(pr), run: func() ([][]any, int, error) {
			err := pr.RunInto(&res)
			return res.Rows, len(res.Rows), err
		}}
	}},
	{"ExplainAnalyze", func(t *testing.T, db *DB, sql string, _ int) matrixRunner {
		return matrixRunner{prepares: func() int { return -1 }, run: func() ([][]any, int, error) {
			a, err := db.ExplainAnalyze(sql)
			if err != nil {
				return nil, 0, err
			}
			return nil, a.Rows, nil
		}}
	}},
}

// mustPrepare prepares sql and checks the artefact's lock set: one entry
// per distinct table (a self join locks its entry once), in ascending
// ID order.
func mustPrepare(t *testing.T, db *DB, sql string, tables int) *Prepared {
	t.Helper()
	pr, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	entries := pr.current().entries
	if len(entries) != tables {
		t.Fatalf("lock set has %d entries, want %d", len(entries), tables)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].ID() >= entries[i].ID() {
			t.Fatalf("lock set not in ascending ID order: %d before %d", entries[i-1].ID(), entries[i].ID())
		}
	}
	return pr
}

func TestReadPathMatrix(t *testing.T) {
	// The balance, not an absolute zero: the arena is process-wide and an
	// earlier test may still hold result tables.
	inUseBefore, _ := storage.ArenaStats()
	for _, ep := range matrixEntryPoints {
		for _, st := range matrixStatements {
			t.Run(ep.name+"/"+st.name, func(t *testing.T) {
				db := matrixDB(t, WithPlanCache(16))
				ref := matrixDB(t, WithEngine(OptimizedIterators))
				both := func(f func(*DB) error) {
					t.Helper()
					for _, d := range []*DB{db, ref} {
						if err := f(d); err != nil {
							t.Fatal(err)
						}
					}
				}
				r := ep.bind(t, db, st.sql, st.tables)
				// step runs the statement, compares it with the reference,
				// and checks how many preparations it has cost so far.
				step := func(name string, wantPrepares int) int {
					t.Helper()
					want, err := ref.Query(st.sql)
					if err != nil {
						t.Fatal(err)
					}
					rows, n, err := r.run()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if n != len(want.Rows) || (rows != nil && !reflect.DeepEqual(rows, want.Rows)) {
						t.Fatalf("%s: got %d rows %v\nwant %v", name, n, rows, want.Rows)
					}
					if got := r.prepares(); got != -1 && got != wantPrepares {
						t.Fatalf("%s: statement prepared %d times so far, want %d", name, got, wantPrepares)
					}
					return n
				}
				groups := step("first run", 1)
				step("warm hit", 1)

				both(func(d *DB) error { return d.Insert("t1", 1000, 99, 0) })
				if got := step("after insert into a referenced table", 2); got != groups+1 {
					t.Fatalf("after insert: %d groups, want %d (stale plan dropped the new group)", got, groups+1)
				}
				both(func(d *DB) error { return d.BuildIndex("t1", "id") })
				step("after index build on a referenced table", 3)

				both(func(d *DB) error { return d.Insert("other", 1) })
				both(func(d *DB) error { return d.BuildIndex("other", "x") })
				step("after changes to an unrelated table", 3)

				// Directory churn: a group leaves and comes back, and a join
				// key outside t2's fine-partition directory must still join.
				// Each statement on a referenced table costs one re-prepare.
				both(func(d *DB) error { _, err := d.Exec("DELETE FROM t1 WHERE g = 99"); return err })
				if got := step("after deleting the last row of a group", 4); got != groups {
					t.Fatalf("after delete: %d groups, want %d (the emptied group survived)", got, groups)
				}
				both(func(d *DB) error { return d.Insert("t1", 1000, 99, 0) })
				if got := step("after re-inserting the group", 5); got != groups+1 {
					t.Fatalf("after re-insert: %d groups, want %d", got, groups+1)
				}
				prepares := 5
				if st.tables > 1 {
					prepares++ // t2 is referenced
				}
				both(func(d *DB) error { return d.Insert("t2", 50, 0) })
				step("after an insert outside t2's directory", prepares)
				both(func(d *DB) error { return d.Insert("t1", 1001, 7, 50) })
				if got := step("after a t1 row joining it", prepares+1); got != groups+2 {
					t.Fatalf("after the joining row: %d groups, want %d (the row did not join)", got, groups+2)
				}
				checkStats(t, db)

				for _, name := range db.Tables() {
					e, err := db.cat.Lookup(name)
					if err != nil {
						t.Fatal(err)
					}
					lockFreeWithin(t, e, 2*time.Second)
				}
			})
		}
	}
	if inUse, _ := storage.ArenaStats(); inUse != inUseBefore {
		t.Fatalf("hique_arena_pages_in_use went %d -> %d over the matrix", inUseBefore, inUse)
	}
}

// TestPreparedFollowsEngine: a handle runs what Query would run on the
// DB's engine — compiled at -O2 on the default, the bound plan handed to
// an injected executor otherwise — and returns the reference rows on all
// five.
func TestPreparedFollowsEngine(t *testing.T) {
	const q = "SELECT t1.g, COUNT(*) AS n FROM t1, t2 WHERE t1.k2 = t2.id AND t1.id < ? GROUP BY t1.g ORDER BY t1.g"
	want, err := matrixDB(t, WithEngine(OptimizedIterators)).Query(q, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range enginetest.DBEngines() {
		t.Run(e.Name, func(t *testing.T) {
			db := matrixDB(t, WithEngine(e.Engine))
			pr, err := db.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			if compiled := pr.current().cq != nil; compiled != (e.Engine == nil) {
				t.Fatalf("artefact compiled = %v on %s", compiled, db.EngineName())
			}
			for pass := 0; pass < 2; pass++ {
				got, err := pr.Run(40)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Fatalf("pass %d: got %v\nwant %v", pass, got.Rows, want.Rows)
				}
			}
		})
	}
}

// TestPreparedRunIntoWarmAllocs: a warm point Prepared.RunInto binds into
// the pooled scratch like QueryInto does, so it may not allocate more
// than the explicit-placeholder QueryInto (which also pays the shape and
// cache lookup).
func TestPreparedRunIntoWarmAllocs(t *testing.T) {
	db := poolTestDB(t, WithPlanCache(64))
	if err := db.BuildIndex("pts", "id"); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT v FROM pts WHERE id = ?"
	pr, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	i := 0
	queryInto := testing.AllocsPerRun(200, func() {
		i++
		if err := db.QueryInto(&res, q, 300+i%500); err != nil {
			t.Fatal(err)
		}
	})
	runInto := testing.AllocsPerRun(200, func() {
		i++
		if err := pr.RunInto(&res, 300+i%500); err != nil {
			t.Fatal(err)
		}
	})
	if runInto > queryInto {
		t.Fatalf("warm Prepared.RunInto allocates %.0f per run, QueryInto %.0f", runInto, queryInto)
	}
}

// TestPreparedRunIntoContainsPanic: RunInto has the same last-resort
// containment as Query — a panic above lease (here a handle with no
// artefact) becomes a *PanicError instead of unwinding into the caller.
func TestPreparedRunIntoContainsPanic(t *testing.T) {
	db := matrixDB(t)
	pr := &Prepared{db: db, query: "SELECT g FROM t1"}
	var res Result
	err := pr.RunInto(&res)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
}

// TestLockSetDedupes pins lockTables' constructor contract directly:
// repeated and unknown names collapse to one entry per existing table,
// ascending by ID, and the returned unlock releases them.
func TestLockSetDedupes(t *testing.T) {
	db := matrixDB(t)
	unlock, entries := db.lockTables([]string{"t3", "t1", "nosuch", "t3", "t1"})
	unlock()
	if len(entries) != 2 || entries[0].ID() >= entries[1].ID() {
		t.Fatalf("lock set has %d entries, want two in ascending ID order", len(entries))
	}
	for _, e := range entries {
		lockFreeWithin(t, e, 2*time.Second)
	}
}

// walkStages runs text through core's operator walk, the differential
// oracle, traced, and returns the stages it recorded.
func walkStages(t *testing.T, db *DB, text string) []StageStats {
	t.Helper()
	p, _, unlock, err := db.planLocked(text)
	if err != nil {
		t.Fatal(err)
	}
	defer unlock()
	p.Trace = &plan.Trace{}
	if _, err := core.NewEngine().Execute(p); err != nil {
		t.Fatalf("%q through the walk: %v", text, err)
	}
	var out []StageStats
	for _, s := range p.Trace.Stages {
		out = append(out, StageStats{Name: s.Name, RowsIn: s.RowsIn, RowsOut: s.RowsOut})
	}
	return out
}

// TestTPCHFusesAsQueryShapesIt asserts, for the four TPC-H texts, that the
// artefact DB.Query caches — compiled from the auto-parameterised shape,
// not from the literal text — took a fused pipeline, and that EXPLAIN
// ANALYZE names that same path and traces it. This is the check the
// yardstick's codegen.fused_share 0 would have tripped: every existing
// "is it fused" test planned the literal text. The join chains (Q3, Q10)
// must trace as the general walk does: the same stage names, every
// join's rows-out, and each chain-fed stage reading the previous join's
// rows-out. And one parallel Q3 counts as one parallel query, however
// many of its joins ran a morsel phase.
func TestTPCHFusesAsQueryShapesIt(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.005, Seed: 42})
	db := Open(WithCatalog(cat), WithPlanCache(16))
	for _, n := range tpch.QueryNumbers() {
		text, err := tpch.Query(n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Query(text); err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		sc := new(queryScratch)
		if err := sc.shape.Shape(text); err != nil {
			t.Fatal(err)
		}
		key := codegen.AppendCacheKey(nil, sc.shape.Out, len(sc.shape.Lits), db.opts, codegen.OptO2)
		v, _, ok := db.cache.GetStamped(key)
		if !ok {
			t.Fatalf("Q%d: no cached artefact under the statement's shape key", n)
		}
		cq := v.(*artefact).cq
		if !cq.Fused || cq.Path != "fused" {
			t.Errorf("Q%d as Query shapes it: fused=%v path=%q, want fused (shape: %s)", n, cq.Fused, cq.Path, sc.shape.Out)
		}
		a, err := db.ExplainAnalyze(text)
		if err != nil {
			t.Fatalf("Q%d EXPLAIN ANALYZE: %v", n, err)
		}
		if a.Path != cq.Path || a.Workers != cq.Workers {
			t.Errorf("Q%d: EXPLAIN ANALYZE reports path=%q workers=%d, the serving artefact has %q/%d", n, a.Path, a.Workers, cq.Path, cq.Workers)
		}
		if !strings.Contains(a.String(), "path: "+cq.Path) {
			t.Errorf("Q%d: rendered analyze output does not name the path:\n%s", n, a)
		}
		if len(cq.Plan.Joins) < 2 {
			continue
		}
		w := walkStages(t, db, text)
		if got, want := stageNames(a.Stages), stageNames(w); !reflect.DeepEqual(got, want) {
			t.Errorf("Q%d: fused stages %v, the walk's %v", n, got, want)
		}
		for ji, j := range cq.Plan.Joins {
			name := plan.TraceJoin(ji)
			fs, _ := stageByName(a.Stages, name)
			if ws, _ := stageByName(w, name); fs.RowsOut != ws.RowsOut {
				t.Errorf("Q%d: %s rows-out %d, the walk's %d", n, name, fs.RowsOut, ws.RowsOut)
			}
			for s := range j.Inputs {
				if j.Inputs[s].Input.Base >= 0 {
					continue
				}
				st, _ := stageByName(a.Stages, plan.TraceJoinStage(ji, s))
				if prev, _ := stageByName(a.Stages, plan.TraceJoin(ji-1)); st.RowsIn != prev.RowsOut {
					t.Errorf("Q%d: %s rows-in %d, join[%d] rows-out %d", n, st.Name, st.RowsIn, ji-1, prev.RowsOut)
				}
			}
		}
	}

	prev := codegen.SetParallelThreshold(1)
	defer codegen.SetParallelThreshold(prev)
	par := Open(WithCatalog(cat), WithPlanCache(16), WithParallelism(2))
	q3, err := tpch.Query(3)
	if err != nil {
		t.Fatal(err)
	}
	before := parallelQueries(t, par)
	if _, err := par.Query(q3); err != nil {
		t.Fatal(err)
	}
	if d := parallelQueries(t, par) - before; d != 1 {
		t.Errorf("one parallel Q3 added %d to hique_parallel_queries_total, want 1", d)
	}
}

// parallelQueries reads hique_parallel_queries_total from db's registry.
func parallelQueries(t *testing.T, db *DB) int64 {
	t.Helper()
	var b strings.Builder
	if err := db.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "hique_parallel_queries_total "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("no hique_parallel_queries_total sample")
	return 0
}

// TestUncachedQueriesRunFused: without a plan cache — Open's default, and
// hique-server -cache 0 — every SELECT still compiles at -O2 and runs a
// fused pipeline, single-table, join, join+aggregate and join team
// alike; the latency histogram records only path="fused", and EXPLAIN
// ANALYZE names the path the query ran.
func TestUncachedQueriesRunFused(t *testing.T) {
	db := Open()
	for _, name := range []string{"ua", "ub", "uc"} {
		if err := db.CreateTable(name, Int("k"), Int("v")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if err := db.Insert(name, int64(i%20), int64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	stmts := []string{
		"SELECT v FROM ua WHERE k = 3",
		"SELECT ua.v, ub.v FROM ua, ub WHERE ua.k = ub.k AND ua.v < 50",
		"SELECT ua.k, COUNT(*) AS n, SUM(ub.v) AS s FROM ua, ub WHERE ua.k = ub.k GROUP BY ua.k",
		"SELECT ua.k, COUNT(*) AS n FROM ua, ub, uc WHERE ua.k = ub.k AND ub.k = uc.k GROUP BY ua.k",
	}
	for _, q := range stmts {
		if _, err := db.Query(q); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		a, err := db.ExplainAnalyze(q)
		if err != nil {
			t.Fatalf("EXPLAIN ANALYZE %q: %v", q, err)
		}
		if a.Path != "fused" {
			t.Errorf("%q: EXPLAIN ANALYZE reports path=%q, want fused", q, a.Path)
		}
	}
	var b strings.Builder
	if err := db.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	fused := 0.0
	for _, line := range strings.Split(b.String(), "\n") {
		sample, v, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(sample, "hique_query_duration_seconds_count{") {
			continue
		}
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case strings.Contains(sample, `path="fused"`):
			fused += n
		case n != 0:
			t.Errorf("%s %v: an uncached SELECT ran off the fused path", sample, n)
		}
	}
	// Each statement runs twice: the query and its EXPLAIN ANALYZE.
	if want := float64(2 * len(stmts)); fused != want {
		t.Errorf("path=\"fused\" counts %v executions, want %v", fused, want)
	}
}
