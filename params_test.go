package hique

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hique/internal/enginetest"
)

// paramsDB builds a small two-table dataset exercising every column kind.
func paramsDB(t testing.TB, options ...Option) *DB {
	t.Helper()
	db := Open(options...)
	if err := db.CreateTable("grp", Int("id"), Char("label", 8)); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("items",
		Int("id"), Int("gid"), Int("v"), Float("price"), Char("name", 8), Date("d")); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 4; g++ {
		if err := db.Insert("grp", int64(g), fmt.Sprintf("g%02d", g)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		// d: days around 2020-01-01 (epoch day 18262).
		if err := db.Insert("items",
			int64(i), int64(i%4), int64(i%7-3), float64(i%10)+0.5,
			fmt.Sprintf("n%d", i%5), int64(18262+i%10)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// equivalenceQueries pairs a literal-specialized statement with its
// explicitly parameterized form; both must return identical results.
var equivalenceQueries = []struct {
	name    string
	literal string
	param   string
	args    []any
}{
	{
		"point-int",
		"SELECT id, v FROM items WHERE id = 7 ORDER BY id",
		"SELECT id, v FROM items WHERE id = ? ORDER BY id",
		[]any{7},
	},
	{
		"float-range",
		"SELECT id, price FROM items WHERE price > 6.5 ORDER BY id",
		"SELECT id, price FROM items WHERE price > ? ORDER BY id",
		[]any{6.5},
	},
	{
		"string-eq",
		"SELECT id, name FROM items WHERE name = 'n3' ORDER BY id",
		"SELECT id, name FROM items WHERE name = ? ORDER BY id",
		[]any{"n3"},
	},
	{
		"date-range",
		"SELECT id FROM items WHERE d >= DATE '2020-01-05' ORDER BY id",
		"SELECT id FROM items WHERE d >= ? ORDER BY id",
		[]any{"2020-01-05"}, // YYYY-MM-DD coerces to a Date parameter
	},
	{
		"negative-int",
		"SELECT id FROM items WHERE v > -2 AND v < 2 ORDER BY id",
		"SELECT id FROM items WHERE v > ? AND v < ? ORDER BY id",
		[]any{-2, 2},
	},
	{
		"left-operand",
		"SELECT id FROM items WHERE 30 <= id ORDER BY id",
		"SELECT id FROM items WHERE ? <= id ORDER BY id",
		[]any{30},
	},
	{
		"join-group",
		"SELECT label, COUNT(*) AS n, SUM(price) AS total FROM items, grp " +
			"WHERE gid = grp.id AND price > 2.5 GROUP BY label ORDER BY label",
		"SELECT label, COUNT(*) AS n, SUM(price) AS total FROM items, grp " +
			"WHERE gid = grp.id AND price > ? GROUP BY label ORDER BY label",
		[]any{2.5},
	},
}

// TestParamEquivalenceAcrossEngines asserts the acceptance criterion that
// parameterized execution returns results identical to literal execution
// on every engine.
func TestParamEquivalenceAcrossEngines(t *testing.T) {
	for _, e := range enginetest.DBEngines() {
		t.Run(e.Name, func(t *testing.T) {
			db := paramsDB(t, WithEngine(e.Engine))
			for _, q := range equivalenceQueries {
				want, err := db.Query(q.literal)
				if err != nil {
					t.Fatalf("%s literal: %v", q.name, err)
				}
				if len(want.Rows) == 0 {
					t.Fatalf("%s: literal query selected nothing; test is vacuous", q.name)
				}
				got, err := db.Query(q.param, q.args...)
				if err != nil {
					t.Fatalf("%s parameterized: %v", q.name, err)
				}
				if !reflect.DeepEqual(want.Columns, got.Columns) || !reflect.DeepEqual(want.Rows, got.Rows) {
					t.Errorf("%s: parameterized result differs from literal\n lit: %v\n par: %v",
						q.name, want.Rows, got.Rows)
				}
			}
		})
	}
}

// TestParamEquivalenceCached runs the same pairs through the plan cache
// with auto-parameterization: the literal spelling and the explicit
// placeholder spelling collapse to one shape and must agree with the
// uncached literal result.
func TestParamEquivalenceCached(t *testing.T) {
	plain := paramsDB(t)
	cached := paramsDB(t, WithPlanCache(64))
	for _, q := range equivalenceQueries {
		want, err := plain.Query(q.literal)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		for round := 0; round < 2; round++ { // cold, then warm
			gotLit, err := cached.Query(q.literal)
			if err != nil {
				t.Fatalf("%s cached literal: %v", q.name, err)
			}
			gotPar, err := cached.Query(q.param, q.args...)
			if err != nil {
				t.Fatalf("%s cached parameterized: %v", q.name, err)
			}
			if !reflect.DeepEqual(want.Rows, gotLit.Rows) {
				t.Errorf("%s round %d: cached literal differs: %v vs %v", q.name, round, gotLit.Rows, want.Rows)
			}
			if !reflect.DeepEqual(want.Rows, gotPar.Rows) {
				t.Errorf("%s round %d: cached parameterized differs: %v vs %v", q.name, round, gotPar.Rows, want.Rows)
			}
		}
	}
	if s := cached.Stats(); s.Cache.Hits == 0 {
		t.Errorf("warm rounds never hit the cache: %+v", s.Cache)
	}
}

// TestAutoParamCompilesOnce is the headline acceptance criterion: N
// same-shape point queries with N distinct literals compile exactly once
// — the plan cache reports one miss and N-1 hits. Literal-specialised
// compilation stays reachable through Prepare, outside the cache.
func TestAutoParamCompilesOnce(t *testing.T) {
	const n = 50
	run := func(t *testing.T, query func(string, ...any) (*Result, error)) {
		for i := 0; i < n; i++ {
			res, err := query(fmt.Sprintf("SELECT id, v FROM items WHERE id = %d", i%40))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || res.Rows[0][0].(int64) != int64(i%40) {
				t.Fatalf("query %d: rows = %v", i, res.Rows)
			}
		}
	}
	t.Run("auto-param", func(t *testing.T) {
		db := paramsDB(t, WithPlanCache(64))
		run(t, db.Query)
		s := db.Stats()
		if s.Cache.Hits < n-1 {
			t.Errorf("hits = %d, want >= %d (one compilation for the whole shape)", s.Cache.Hits, n-1)
		}
		if s.Cache.Misses != 1 {
			t.Errorf("misses = %d, want exactly 1", s.Cache.Misses)
		}
	})
	t.Run("prepared-literal", func(t *testing.T) {
		// Prepare plans the text as given, so each distinct literal is
		// its own compilation — and none of them touches the plan cache.
		db := paramsDB(t, WithPlanCache(64))
		run(t, preparedLiteralRoute(db))
		if s := db.Stats(); s.Cache.Hits+s.Cache.Misses != 0 {
			t.Errorf("prepared handles went through the plan cache: %+v", s.Cache)
		}
	})
}

// TestParamIndexScan checks that a parameterized equality probe still
// rides the fractal B+-tree index: the probe key binds at run time.
func TestParamIndexScan(t *testing.T) {
	db := paramsDB(t, WithPlanCache(64))
	if err := db.BuildIndex("items", "id"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		res, err := db.Query("SELECT id, name FROM items WHERE id = ?", i)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].(int64) != int64(i) {
			t.Fatalf("id=%d: rows = %v", i, res.Rows)
		}
	}
	src, err := db.GeneratedSource("SELECT id, name FROM items WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	if want := "bind.Int64(0)"; !strings.Contains(src, want) {
		t.Errorf("generated source does not read the bind vector:\n%s", src)
	}
}

// TestBindErrors checks arity and coercion failures surface as BindError
// (the server maps these to HTTP 400).
func TestBindErrors(t *testing.T) {
	db := paramsDB(t)
	var bindErr *BindError
	if _, err := db.Query("SELECT id FROM items WHERE id = ?"); !errors.As(err, &bindErr) {
		t.Errorf("missing argument: got %v, want BindError", err)
	}
	if _, err := db.Query("SELECT id FROM items WHERE id = ?", 1, 2); !errors.As(err, &bindErr) {
		t.Errorf("extra argument: got %v, want BindError", err)
	}
	if _, err := db.Query("SELECT id FROM items WHERE id = ?", "not-a-number"); !errors.As(err, &bindErr) {
		t.Errorf("uncoercible value: got %v, want BindError", err)
	}
	if _, err := db.Query("SELECT id FROM items WHERE id = ?", 7.5); !errors.As(err, &bindErr) {
		t.Errorf("fractional value for Int column: got %v, want BindError", err)
	}
	if _, err := db.Query("SELECT id FROM items WHERE id = ?", 7.0); err != nil {
		t.Errorf("integral float must coerce to Int: %v", err)
	}
	if _, err := db.Query("SELECT ? FROM items", 1); err == nil {
		t.Error("parameter outside a WHERE comparison must be rejected")
	}
}

// TestLiftedLiteralKindMismatchIsPlanError: a lifted literal incompatible
// with the compared column is a statement problem and must surface as a
// plan-style error naming the literal and the column, not as a
// caller-value bind error (DESIGN.md §3.1).
func TestLiftedLiteralKindMismatchIsPlanError(t *testing.T) {
	db := paramsDB(t, WithPlanCache(16))
	_, err := db.Query("SELECT id FROM items WHERE name = 5")
	if err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("err = %v, want plan-style literal-incompatibility error", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "literal 5") || !strings.Contains(msg, "name") {
		t.Fatalf("err = %v, want the literal and the column named", err)
	}
	var bindErr *BindError
	if errors.As(err, &bindErr) {
		t.Fatalf("statement-embedded literal mismatch must not be a BindError: %v", err)
	}
}

// TestPreparedParams runs a parameterized prepared statement repeatedly.
func TestPreparedParams(t *testing.T) {
	db := paramsDB(t)
	pr, err := db.Prepare("SELECT id, name FROM items WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		res, err := pr.Run(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].(int64) != int64(i) {
			t.Fatalf("id=%d: rows = %v", i, res.Rows)
		}
	}
	var bindErr *BindError
	if _, err := pr.Run(); !errors.As(err, &bindErr) {
		t.Errorf("missing argument: got %v, want BindError", err)
	}
}

// TestBoundCharWiderThanColumn: a string parameter binds in place in the
// fused pipelines (it used to demote the whole statement to the general
// walk), and a bound value wider than the column keeps the literal's
// semantics — never equal, the stored field sorts strictly below it —
// on every comparison operator, in a scan, an aggregate and a join side,
// and in the filters of DELETE and UPDATE, against optimized-iterators.
func TestBoundCharWiderThanColumn(t *testing.T) {
	build := func(options ...Option) *DB {
		db := Open(options...)
		if err := db.CreateTable("fl", Int("id"), Char("f", 1), Int("k")); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateTable("dk", Int("k"), Int("w")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			if err := db.Insert("fl", int64(i), string(rune('P'+i%4)), int64(i%5)); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < 5; k++ {
			if err := db.Insert("dk", int64(k), int64(10*k)); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	db, ref := build(WithPlanCache(32)), build(WithEngine(OptimizedIterators))
	shapes := []string{
		"SELECT id FROM fl WHERE f %s ?",
		"SELECT COUNT(*) AS n, SUM(id) AS s FROM fl WHERE f %s ?",
		"SELECT dk.w, COUNT(*) AS n FROM fl, dk WHERE fl.k = dk.k AND fl.f %s ? GROUP BY dk.w ORDER BY dk.w",
	}
	for _, shape := range shapes {
		for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
			q := fmt.Sprintf(shape, op)
			pr, err := db.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			if cq := pr.compiled(); cq == nil || !cq.Fused {
				t.Errorf("%s: a bound CHAR filter did not compile to a fused pipeline", q)
			}
			for _, arg := range []string{"Rxx", "R", "Q", "", "Zz"} {
				want, err := ref.Query(q, arg)
				if err != nil {
					t.Fatal(err)
				}
				for name, run := range map[string]func(string, ...any) (*Result, error){"Query": db.Query, "Prepared": func(_ string, a ...any) (*Result, error) { return pr.Run(a...) }} {
					got, err := run(q, arg)
					if err != nil {
						t.Fatalf("%s %q via %s: %v", q, arg, name, err)
					}
					if !reflect.DeepEqual(got.Rows, want.Rows) {
						t.Errorf("%s with %q via %s:\n got  %v\n want %v", q, arg, name, got.Rows, want.Rows)
					}
				}
			}
		}
	}
	// The write path: UPDATE then DELETE touch exactly the rows
	// optimized-iterators selects with the same filter.
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		for _, arg := range []string{"Rxx", "R", "Q", "", "Zz"} {
			w := build(WithPlanCache(32))
			want, err := ref.Query(fmt.Sprintf("SELECT id FROM fl WHERE f %s ? ORDER BY id", op), arg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := w.Exec(fmt.Sprintf("UPDATE fl SET k = 99 WHERE f %s ?", op), arg)
			if err != nil || res.RowsAffected != len(want.Rows) {
				t.Fatalf("UPDATE f %s %q: %v, %d rows, want %d", op, arg, err, res.RowsAffected, len(want.Rows))
			}
			got, err := w.Query("SELECT id FROM fl WHERE k = 99 ORDER BY id")
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) > 0 && !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Errorf("UPDATE f %s %q set\n got  %v\n want %v", op, arg, got.Rows, want.Rows)
			}
			res, err = w.Exec(fmt.Sprintf("DELETE FROM fl WHERE f %s ?", op), arg)
			if err != nil || res.RowsAffected != len(want.Rows) {
				t.Errorf("DELETE f %s %q: %v, %d rows, want %d", op, arg, err, res.RowsAffected, len(want.Rows))
			}
		}
	}
}
