package hique

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"hique/internal/catalog"
	"hique/internal/codegen"
	"hique/internal/morsel"
	"hique/internal/storage"
	"hique/internal/types"
)

// Regression tests for the panic-containment violations hique-vet's
// containment analyzer surfaced: Insert and BuildIndex used to run their
// mutations between a manual Lock/Unlock pair, so a panic inside the
// mutation unwound to the caller's containPanic with the table writer
// lock still held — wedging the table forever. The *Locked helpers now
// register the unlock defer before containPanic, converting the panic to
// a statement error and then releasing.

// lockFreeWithin asserts the entry's writer lock can be acquired, i.e.
// the contained panic did not leak it.
func lockFreeWithin(t *testing.T, e *catalog.TableEntry, d time.Duration) {
	t.Helper()
	got := make(chan struct{})
	go func() {
		e.Lock()
		e.Unlock()
		close(got)
	}()
	select {
	case <-got:
	case <-time.After(d):
		t.Fatal("table writer lock still held after contained panic")
	}
}

func TestInsertLockedContainsPanic(t *testing.T) {
	db := Open()
	if err := db.CreateTable("t", Int("id"), Int("v")); err != nil {
		t.Fatal(err)
	}
	e, err := db.cat.Lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	// A row wider than the schema makes appendRowLocked index past the
	// column table and panic; the helper must convert it to *PanicError
	// and release the lock.
	wide := []types.Datum{types.IntDatum(1), types.IntDatum(2), types.IntDatum(3)}
	_, err = db.insertLocked(e, wide, nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("insertLocked error = %v, want *PanicError", err)
	}
	lockFreeWithin(t, e, 2*time.Second)
	// The table still serves writes and reads afterwards.
	if err := db.Insert("t", 1, 2); err != nil {
		t.Fatalf("Insert after contained panic: %v", err)
	}
	// Both schema columns were written before the panic at the excess
	// index, so the aborted insert's reserved slot survives as a full
	// row alongside the successful one.
	if n, err := db.RowCount("t"); err != nil || n != 2 {
		t.Fatalf("RowCount = %d, %v; want 2", n, err)
	}
}

// TestInsertPanicRecountsStats: a panic mid-INSERT leaves a partial row
// in the heap that the value counts never saw. The contained statement
// rebuilds the statistics from the heap under the still-held lock and
// bumps the version, so no cached plan outlives them.
func TestInsertPanicRecountsStats(t *testing.T) {
	db := Open()
	if err := db.CreateTable("t", Int("id"), Int("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t", 1, 2); err != nil { // the table now keeps counts
		t.Fatal(err)
	}
	e, err := db.cat.Lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	before := db.cat.StampFor([]string{"t"})
	wide := []types.Datum{types.IntDatum(7), types.IntDatum(8), types.IntDatum(9)}
	_, err = db.insertLocked(e, wide, nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("insertLocked error = %v, want *PanicError", err)
	}
	lockFreeWithin(t, e, 2*time.Second)
	if !reflect.DeepEqual(e.Stats, catalog.ComputeStats(e.Table)) {
		t.Fatalf("stats after a contained panic: %+v, the heap gives %+v", e.Stats, catalog.ComputeStats(e.Table))
	}
	if db.cat.StampFor([]string{"t"}) == before {
		t.Fatal("a contained panic mid-INSERT left the table's stamp unmoved")
	}
	// The counts restart from the heap at the next write.
	if err := db.Insert("t", 10, 11); err != nil {
		t.Fatal(err)
	}
	checkStats(t, db)

	// An entry with no heap makes the recount itself panic: that too is
	// contained and releases the lock.
	bare := &catalog.TableEntry{}
	if _, err := db.insertLocked(bare, wide, nil); !errors.As(err, &pe) {
		t.Fatalf("insertLocked on a bare entry: %v, want *PanicError", err)
	}
	lockFreeWithin(t, bare, 2*time.Second)
}

func TestBuildIndexLockedReleasesOnError(t *testing.T) {
	db := Open()
	if err := db.CreateTable("t", Int("id"), Char("name", 8)); err != nil {
		t.Fatal(err)
	}
	e, err := db.cat.Lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	// Indexing a CHAR column is rejected; the error path must release.
	if _, err := db.buildIndexLocked(e, "t", "name"); err == nil {
		t.Fatal("expected BuildIndex on a char column to fail")
	}
	lockFreeWithin(t, e, 2*time.Second)
	if err := db.BuildIndex("t", "id"); err != nil {
		t.Fatalf("BuildIndex after failed attempt: %v", err)
	}
}

// TestPlanAttemptReleasesOnBuildError pins the planLocked restructure:
// a failed plan build inside an attempt must release every table lock it
// took (previously the manual unlock could be skipped by a contained
// panic anywhere between lock and build).
func TestPlanAttemptReleasesOnBuildError(t *testing.T) {
	db := Open()
	if err := db.CreateTable("t", Int("id"), Int("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT nosuch FROM t"); err == nil {
		t.Fatal("expected unknown-column query to fail")
	}
	e, err := db.cat.Lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	lockFreeWithin(t, e, 2*time.Second)
	if err := db.Insert("t", 1, 2); err != nil {
		t.Fatalf("Insert after failed plan: %v", err)
	}
}

func TestTableInfo(t *testing.T) {
	db := Open()
	if err := db.CreateTable("t", Int("id"), Float("price")); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t", 1, 2.5); err != nil {
		t.Fatal(err)
	}
	rows, cols, err := db.TableInfo("t")
	if err != nil {
		t.Fatal(err)
	}
	if rows != 1 || len(cols) != 2 {
		t.Fatalf("TableInfo = %d rows, %v", rows, cols)
	}
	if _, _, err := db.TableInfo("nosuch"); err == nil {
		t.Fatal("expected unknown-table error")
	}
}

// TestParallelPhasePanicIsContained pins the morsel phases' panic
// contract end to end: a panic raised inside a parallel phase — on a
// helper goroutine or on the caller — comes back as a statement error,
// only after every worker has stopped reading the table, with the
// result's arena pages returned and the table's lock released.
func TestParallelPhasePanicIsContained(t *testing.T) {
	prev := codegen.SetParallelThreshold(1)
	defer codegen.SetParallelThreshold(prev)
	const rows = 5 * morsel.Rows
	// Only a cached statement keeps its compiled pipeline.
	db := Open(WithPlanCache(8), WithParallelism(4))
	if err := db.CreateTable("f", Int("id"), Int("grp")); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("d", Int("id"), Int("w")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := db.Insert("f", int64(i), int64(i%8)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if err := db.Insert("d", int64(i), int64(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	e, err := db.cat.Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	// narrow has f's row count in one column: a pipeline compiled for
	// f's two-column tuples runs off the end of its pages.
	narrow := storage.NewTable("f", types.NewSchema(types.Col("id", types.Int)))
	for i := 0; i < rows; i++ {
		narrow.AppendRow(types.IntDatum(int64(i)))
	}
	for _, c := range []struct{ name, q string }{
		{"scan", "SELECT id FROM f WHERE grp <> 3"},
		{"scan-agg", "SELECT grp, COUNT(*) AS n, SUM(id) AS s FROM f WHERE id >= 0 GROUP BY grp"},
		{"join-agg", "SELECT d.w, COUNT(*) AS n FROM f, d WHERE f.grp = d.id GROUP BY d.w"},
	} {
		t.Run(c.name, func(t *testing.T) {
			q := c.q
			q0, _ := morsel.Stats()
			if _, err := db.Query(q); err != nil {
				t.Fatal(err)
			}
			if q1, _ := morsel.Stats(); q1 == q0 {
				t.Fatal("the statement did not run a parallel phase")
			}
			before := db.Stats().Arena.PagesInUse
			// Swap the heap under the cached pipeline without a version
			// bump, so the next run reuses it and panics inside the phase.
			e.Lock()
			good := e.Table
			e.Table = narrow
			e.Unlock()
			_, err := db.Query(q)
			e.Lock()
			e.Table = good
			e.Unlock()
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *PanicError", err)
			}
			if after := db.Stats().Arena.PagesInUse; after != before {
				t.Errorf("arena pages in use %d -> %d across the contained panic", before, after)
			}
			lockFreeWithin(t, e, 2*time.Second)
			if err := db.Insert("f", int64(-1), int64(0)); err != nil {
				t.Fatalf("Insert after contained panic: %v", err)
			}
		})
	}
}
