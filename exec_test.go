package hique

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hique/internal/dsm"
	"hique/internal/enginetest"
	"hique/internal/plan"
	"hique/internal/storage"
)

// checkStats fails the test unless every table's statistics equal a
// from-scratch ComputeStats over its heap: the write path maintains them
// incrementally, and the two may never disagree.
func checkStats(t testing.TB, db *DB) {
	t.Helper()
	if err := db.cat.CheckStats(); err != nil {
		t.Fatal(err)
	}
}

// statsDB follows every write statement with checkStats.
type statsDB struct {
	*DB
	t testing.TB
}

func (d statsDB) Exec(query string, args ...any) (ExecResult, error) {
	d.t.Helper()
	res, err := d.DB.Exec(query, args...)
	checkStats(d.t, d.DB)
	return res, err
}

func (d statsDB) Insert(table string, values ...any) error {
	d.t.Helper()
	err := d.DB.Insert(table, values...)
	checkStats(d.t, d.DB)
	return err
}

func execDB(t *testing.T, options ...Option) statsDB {
	t.Helper()
	db := Open(options...)
	if err := db.CreateTable("items", Int("id"), Float("price"), Char("label", 8)); err != nil {
		t.Fatal(err)
	}
	return statsDB{db, t}
}

func rowCount(t *testing.T, db statsDB, table string) int {
	t.Helper()
	n, err := db.RowCount(table)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestExecInsertDeleteUpdate(t *testing.T) {
	db := execDB(t)

	res, err := db.Exec("INSERT INTO items VALUES (1, 10.0, 'a'), (2, 20.0, 'b'), (3, 30.0, 'c')")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 3 || rowCount(t, db, "items") != 3 {
		t.Fatalf("insert affected %d, table has %d", res.RowsAffected, rowCount(t, db, "items"))
	}

	res, err = db.Exec("UPDATE items SET price = ?, label = 'upd' WHERE id >= ?", 99.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 {
		t.Fatalf("update affected %d, want 2", res.RowsAffected)
	}
	q, err := db.Query("SELECT label, price FROM items WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	if q.Rows[0][0] != "upd" || q.Rows[0][1] != 99.5 {
		t.Fatalf("updated row = %v", q.Rows[0])
	}

	res, err = db.Exec("DELETE FROM items WHERE price = 99.5")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 || rowCount(t, db, "items") != 1 {
		t.Fatalf("delete affected %d, table has %d", res.RowsAffected, rowCount(t, db, "items"))
	}

	// Unconditional forms.
	if res, err = db.Exec("UPDATE items SET price = 0.0"); err != nil || res.RowsAffected != 1 {
		t.Fatalf("bare update: %v / %+v", err, res)
	}
	if res, err = db.Exec("DELETE FROM items"); err != nil || res.RowsAffected != 1 {
		t.Fatalf("bare delete: %v / %+v", err, res)
	}
	if rowCount(t, db, "items") != 0 {
		t.Fatal("table not empty after DELETE FROM")
	}
}

func TestExecParameterizedInsertCached(t *testing.T) {
	db := execDB(t, WithPlanCache(64))
	const stmt = "INSERT INTO items VALUES (?, ?, ?)"
	for i := 0; i < 50; i++ {
		if _, err := db.Exec(stmt, i, float64(i), fmt.Sprintf("l%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats().WriteCache
	if st.Hits < 49 {
		t.Fatalf("write-plan cache hits = %d, want >= 49 (repeated INSERT must skip re-parsing)", st.Hits)
	}
	if rowCount(t, db, "items") != 50 {
		t.Fatalf("rows = %d", rowCount(t, db, "items"))
	}
	// Reads observe the writes (stats refresh + invalidation happen once
	// per statement, not per row).
	q, err := db.Query("SELECT COUNT(*) AS n FROM items WHERE id >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if q.Rows[0][0] != int64(50) {
		t.Fatalf("count = %v", q.Rows[0][0])
	}
}

func TestExecErrors(t *testing.T) {
	db := execDB(t)
	if _, err := db.Exec("SELECT id FROM items"); err == nil || !strings.Contains(err.Error(), "use Query") {
		t.Errorf("SELECT through Exec: %v", err)
	}
	if _, err := db.Exec("INSERT INTO missing VALUES (1)"); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := db.Exec("INSERT INTO items VALUES (1, 2.0, 'x'"); err == nil {
		t.Error("syntax error accepted")
	}
	var bindErr *BindError
	if _, err := db.Exec("INSERT INTO items VALUES (?, ?, ?)", 1, 2.0); !errors.As(err, &bindErr) {
		t.Errorf("arity mismatch: %v, want BindError", err)
	}
	if _, err := db.Exec("DELETE FROM items WHERE id = ?", "nope"); !errors.As(err, &bindErr) {
		t.Errorf("uncoercible param: %v, want BindError", err)
	}
}

func TestOversizedStringsRejected(t *testing.T) {
	db := execDB(t) // label is Char(8)
	long := strings.Repeat("x", 9)

	var w *WidthError
	// Go API.
	if err := db.Insert("items", 1, 1.0, long); !errors.As(err, &w) {
		t.Fatalf("Insert: %v, want WidthError", err)
	}
	if w.Column != "label" || w.Width != 8 || w.Len != 9 {
		t.Errorf("WidthError = %+v", w)
	}
	// SQL literal.
	if _, err := db.Exec("INSERT INTO items VALUES (1, 1.0, 'xxxxxxxxx')"); !errors.As(err, &w) {
		t.Errorf("SQL literal insert: %v, want WidthError", err)
	}
	// SQL bind parameter: the supplied value is at fault, so it reports
	// as a BindError (the wire layer's 400 class) mentioning the width.
	var bindErr *BindError
	if _, err := db.Exec("INSERT INTO items VALUES (?, ?, ?)", 1, 1.0, long); !errors.As(err, &bindErr) {
		t.Errorf("SQL param insert: %v, want BindError", err)
	} else if !strings.Contains(err.Error(), "CHAR(8)") {
		t.Errorf("bind width error %q does not mention CHAR(8)", err)
	}
	// UPDATE SET, both forms.
	if err := db.Insert("items", 1, 1.0, "ok"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("UPDATE items SET label = 'xxxxxxxxx'"); !errors.As(err, &w) {
		t.Errorf("SQL literal update: %v, want WidthError", err)
	}
	if _, err := db.Exec("UPDATE items SET label = ?", long); !errors.As(err, &bindErr) {
		t.Errorf("SQL param update: %v, want BindError", err)
	}
	// A multi-row statement with one bad row applies nothing.
	if _, err := db.Exec("INSERT INTO items VALUES (2, 2.0, 'fine'), (3, 3.0, 'xxxxxxxxx')"); err == nil {
		t.Fatal("oversized row accepted")
	}
	if n := rowCount(t, db, "items"); n != 1 {
		t.Fatalf("rows = %d, want 1 (failed statement must apply atomically)", n)
	}
	// An exactly-width string is stored untruncated and matches.
	if err := db.Insert("items", 4, 4.0, "eightchr"); err != nil {
		t.Fatal(err)
	}
	q, err := db.Query("SELECT id FROM items WHERE label = 'eightchr'")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 1 {
		t.Fatalf("exact-width match rows = %d", len(q.Rows))
	}
}

// TestOversizedStringComparisons pins that a comparison value wider than
// the CHAR(n) column is legal and evaluates identically on every engine:
// equality never matches (values are stored untruncated, so nothing can
// equal a wider string — the core and fused comparators used to truncate
// the comparand and falsely match), and range predicates order the
// stored prefix strictly below the wider value. Width checks apply to
// stored values only, so DELETE/UPDATE filters accept wide comparands
// too.
func TestOversizedStringComparisons(t *testing.T) {
	for _, eng := range enginetest.DBEngines() {
		t.Run(eng.Name, func(t *testing.T) {
			db := execDB(t, WithEngine(eng.Engine)) // label is Char(8)
			for i, label := range []string{"aaaa", "zzzzzzzz", "mmmm"} {
				if err := db.Insert("items", i, float64(i), label); err != nil {
					t.Fatal(err)
				}
			}
			count := func(q string, args ...any) int {
				t.Helper()
				r, err := db.Query(q, args...)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				return len(r.Rows)
			}
			if n := count("SELECT id FROM items WHERE label = 'zzzzzzzzz'"); n != 0 {
				t.Errorf("equality with 9-byte literal matched %d rows, want 0", n)
			}
			if n := count("SELECT id FROM items WHERE label = ?", "zzzzzzzzz"); n != 0 {
				t.Errorf("equality with 9-byte param matched %d rows, want 0", n)
			}
			if n := count("SELECT id FROM items WHERE label < 'zzzzzzzzz'"); n != 3 {
				t.Errorf("range with 9-byte literal matched %d rows, want 3 (stored prefix sorts below)", n)
			}
			if n := count("SELECT id FROM items WHERE label <> ?", "zzzzzzzzz"); n != 3 {
				t.Errorf("inequality with 9-byte param matched %d rows, want 3", n)
			}
			// DML filters accept wide comparands too (they are reads).
			res, err := db.Exec("DELETE FROM items WHERE label = ?", "zzzzzzzzz")
			if err != nil || res.RowsAffected != 0 {
				t.Errorf("delete with wide equality: %v / %+v", err, res)
			}
			res, err = db.Exec("DELETE FROM items WHERE label < ?", "aaaazzzzz")
			if err != nil || res.RowsAffected != 1 {
				t.Errorf("delete with wide range: %v / %+v (want the 'aaaa' row only)", err, res)
			}
		})
	}
}

// TestWriteFilterComparesCharInPlace: DELETE and UPDATE evaluate their
// filters through the compiled predicates, which compare a CHAR field in
// place — a statement that scans every row allocates per statement, not
// per row scanned.
func TestWriteFilterComparesCharInPlace(t *testing.T) {
	const rows = 2000
	db := execDB(t, WithPlanCache(64))
	for i := 0; i < rows; i++ {
		if err := db.Insert("items", i, float64(i), fmt.Sprintf("n%05d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		stmt string
		args []any
	}{
		{"DELETE FROM items WHERE label = 'nobody'", nil},
		{"UPDATE items SET price = 1.0 WHERE label = 'nobody'", nil},
		{"DELETE FROM items WHERE label > ?", []any{"zzzz"}},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if res, err := db.DB.Exec(c.stmt, c.args...); err != nil || res.RowsAffected != 0 {
				t.Fatalf("%s: %v / %+v", c.stmt, err, res)
			}
		})
		checkStats(t, db.DB)
		if allocs > rows/10 {
			t.Errorf("%s scanning %d rows: %.0f allocs per statement", c.stmt, rows, allocs)
		}
	}
}

// TestCoercionUnified pins that the Go-API Insert accepts exactly what
// query bind parameters accept: int into Float, date strings and
// integral floats into Date, int64 into Int.
func TestCoercionUnified(t *testing.T) {
	db := statsDB{Open(), t}
	if err := db.CreateTable("ev", Int("id"), Float("score"), Date("day")); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("ev", 1, 5, "2024-03-01"); err != nil {
		t.Fatalf("Insert with int-for-Float and string-for-Date: %v", err)
	}
	if err := db.Insert("ev", 2.0, 6.5, 19790.0); err != nil {
		t.Fatalf("Insert with integral floats: %v", err)
	}
	// The same values bind on the query side and match what was stored.
	q, err := db.Query("SELECT id FROM ev WHERE day = ?", "2024-03-01")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 1 || q.Rows[0][0] != int64(1) {
		t.Fatalf("date round trip rows = %v", q.Rows)
	}
	q, err = db.Query("SELECT id FROM ev WHERE score = ?", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 1 {
		t.Fatalf("int-for-float round trip rows = %v", q.Rows)
	}
	// Still rejected: non-integral floats and wrong types.
	if err := db.Insert("ev", 1.5, 1.0, 1); err == nil {
		t.Error("non-integral float accepted for Int")
	}
	if err := db.Insert("ev", "x", 1.0, 1); err == nil {
		t.Error("string accepted for Int")
	}
}

// TestDMLMaintainsIndexes pins that index probes observe DML: previously
// an insert after BuildIndex was invisible to index scans (the tree was
// never updated), so a point query through the index missed fresh rows.
func TestDMLMaintainsIndexes(t *testing.T) {
	db := execDB(t)
	for i := 0; i < 100; i++ {
		if err := db.Insert("items", i, float64(i), fmt.Sprintf("l%02d", i%50)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildIndex("items", "id"); err != nil {
		t.Fatal(err)
	}
	point := func(id int) int {
		t.Helper()
		q, err := db.Query(fmt.Sprintf("SELECT price FROM items WHERE id = %d", id))
		if err != nil {
			t.Fatal(err)
		}
		return len(q.Rows)
	}

	// Insert after index build: visible through the index probe.
	if _, err := db.Exec("INSERT INTO items VALUES (500, 500.0, 'new')"); err != nil {
		t.Fatal(err)
	}
	if n := point(500); n != 1 {
		t.Fatalf("fresh row via index probe: %d rows, want 1", n)
	}
	if err := db.Insert("items", 501, 501.0, "new2"); err != nil {
		t.Fatal(err)
	}
	if n := point(501); n != 1 {
		t.Fatalf("Go-API fresh row via index probe: %d rows, want 1", n)
	}

	// Delete compacts rows: the rebuilt index must not resurrect them nor
	// mis-address survivors.
	if _, err := db.Exec("DELETE FROM items WHERE id < 50"); err != nil {
		t.Fatal(err)
	}
	if n := point(10); n != 0 {
		t.Fatalf("deleted row still found: %d rows", n)
	}
	if n := point(99); n != 1 {
		t.Fatalf("survivor lost after delete: %d rows", n)
	}

	// Updating the indexed key re-keys the tree.
	if _, err := db.Exec("UPDATE items SET id = ? WHERE id = ?", 777, 99); err != nil {
		t.Fatal(err)
	}
	if n := point(777); n != 1 {
		t.Fatalf("re-keyed row not found: %d rows", n)
	}
	if n := point(99); n != 0 {
		t.Fatalf("old key still found: %d rows", n)
	}
}

// panicEngine is the column-store engine, except that a statement with an
// aggregation panics inside Execute.
type panicEngine struct{ Engine }

func (e panicEngine) Execute(p *plan.Plan) (*storage.Table, error) {
	if p.Agg != nil {
		panic("panicEngine: aggregation")
	}
	return e.Engine.Execute(p)
}

// TestEnginePanicContained pins the crash-proofing: a statement that
// drives an engine into a panic (panicEngine's aggregation) reports a
// statement error, and the same DB keeps answering.
func TestEnginePanicContained(t *testing.T) {
	db := execDB(t, WithEngine(panicEngine{dsm.NewEngine()}))
	for i := 0; i < 10; i++ {
		if err := db.Insert("items", i, float64(i)+0.5, "x"); err != nil {
			t.Fatal(err)
		}
	}
	_, err := db.Query("SELECT price, COUNT(*) FROM items GROUP BY price")
	if err == nil {
		t.Fatal("panic-triggering statement succeeded; pick another trigger")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want PanicError", err, err)
	}
	// The process — and this DB, including writers — keeps working.
	q, err := db.Query("SELECT id FROM items WHERE id = 3")
	if err != nil || len(q.Rows) != 1 {
		t.Fatalf("follow-up query: %v / %d rows", err, len(q.Rows))
	}
	if _, err := db.Exec("INSERT INTO items VALUES (100, 1.0, 'y')"); err != nil {
		t.Fatalf("follow-up insert: %v", err)
	}
}

func TestPreparedExec(t *testing.T) {
	db := execDB(t)
	ins, err := db.PrepareExec("INSERT INTO items VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := ins.Run(i, float64(i), "p"); err != nil {
			t.Fatal(err)
		}
		checkStats(t, db.DB)
	}
	if rowCount(t, db, "items") != 20 {
		t.Fatalf("rows = %d", rowCount(t, db, "items"))
	}
	del, err := db.PrepareExec("DELETE FROM items WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	res, err := del.Run(7)
	if err != nil || res.RowsAffected != 1 {
		t.Fatalf("prepared delete: %v / %+v", err, res)
	}
	checkStats(t, db.DB)
}

// TestBatchedInsertSemantics pins that one multi-VALUES statement equals
// N single inserts observably (row count, queryability) while paying the
// per-statement costs once — the catalogue version moves by a bounded
// number of bumps per statement, not per row.
func TestBatchedInsertSemantics(t *testing.T) {
	db := execDB(t, WithPlanCache(64))
	var sb strings.Builder
	sb.WriteString("INSERT INTO items VALUES ")
	for i := 0; i < 1000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %g, 'r%03d')", i, float64(i)*0.5, i%1000)
	}
	res, err := db.Exec(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1000 || rowCount(t, db, "items") != 1000 {
		t.Fatalf("batch insert: %+v, rows %d", res, rowCount(t, db, "items"))
	}
	before := db.cat.TableVersion("items")
	if _, err := db.Exec("INSERT INTO items VALUES (2000, 1.0, 'a'), (2001, 2.0, 'b')"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT COUNT(*) FROM items"); err != nil {
		t.Fatal(err)
	}
	after := db.cat.TableVersion("items")
	if after-before > 1 {
		t.Fatalf("table version moved %d times for one 2-row statement, want <= 1 (one stats invalidation per statement)", after-before)
	}
}
