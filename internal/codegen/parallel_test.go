// Edge-case tests for the morsel-driven parallel pipelines: shapes
// where the morsel split degenerates (empty tables, sub-morsel row
// counts, counts that do not divide evenly), LIMIT cancellation of
// unclaimed morsels, and parameterized predicates evaluated inside
// workers. The differential corpus (internal/enginetest) covers the
// broad byte-identity contract; these pin the machinery's corners.
package codegen

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hique/internal/catalog"
	"hique/internal/morsel"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/types"
)

// forceParallel drops the serial threshold so test-sized tables compile
// parallel pipelines, restoring it afterwards.
func forceParallel(t *testing.T) {
	t.Helper()
	prev := SetParallelThreshold(1)
	t.Cleanup(func() { SetParallelThreshold(prev) })
}

// parCatalog builds a catalogue with an n-row single table
// pt(id INT, grp INT, val FLOAT).
func parCatalog(n int) *catalog.Catalog {
	cat := catalog.New()
	pt := storage.NewTable("pt", types.NewSchema(
		types.Col("id", types.Int), types.Col("grp", types.Int),
		types.Col("val", types.Float)))
	for i := 0; i < n; i++ {
		pt.AppendRow(types.IntDatum(int64(i)), types.IntDatum(int64(i%7)),
			types.FloatDatum(float64(i)/8))
	}
	cat.Register(pt)
	return cat
}

// runParallelVsSerial compiles q at OptO2 serial and parallel
// (workers=4), runs it once more through core's walk, requires
// byte-identical raw-order results, and returns them.
func runParallelVsSerial(t *testing.T, cat *catalog.Catalog, q string, params ...types.Datum) []string {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	serial, parallel := plan.DefaultOptions(), plan.DefaultOptions()
	serial.Parallelism = 1
	parallel.Parallelism = 4
	var ref []string
	for i, opts := range []plan.Options{serial, parallel, serial} {
		p, err := plan.BuildWithOptions(stmt, cat, opts)
		if err != nil {
			t.Fatalf("plan %q: %v", q, err)
		}
		var out *storage.Table
		if i < 2 {
			cq, err := Generate(p, OptO2)
			if err != nil {
				t.Fatalf("generate %q: %v", q, err)
			}
			if out, err = cq.Run(params...); err != nil {
				t.Fatalf("run %q: %v", q, err)
			}
		} else {
			out = runWalk(t, p, params...)
		}
		got := rowsAsStrings(out)
		if i == 0 { // the serial rows, an empty set included
			ref = got
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Errorf("%q: run %d (0 serial, 1 parallel, 2 general walk) differs from serial\nserial: %v\ngot:    %v", q, i, ref, got)
		}
	}
	return ref
}

func TestParallelScanEmptyTable(t *testing.T) {
	forceParallel(t)
	runParallelVsSerial(t, parCatalog(0), "SELECT id, val FROM pt WHERE grp = 3")
}

func TestParallelScanFewerRowsThanOneMorsel(t *testing.T) {
	forceParallel(t)
	// Well under morsel.Rows: pageMorsels yields a single morsel and the
	// pipeline must fall back to the serial loop mid-run.
	runParallelVsSerial(t, parCatalog(100), "SELECT id, val FROM pt WHERE grp <> 2")
}

func TestParallelScanRowCountNotMultipleOfMorsel(t *testing.T) {
	forceParallel(t)
	// Several morsels plus a ragged tail morsel.
	cat := parCatalog(3*morsel.Rows + 137)
	runParallelVsSerial(t, cat, "SELECT id FROM pt WHERE grp >= 3")
	runParallelVsSerial(t, cat,
		"SELECT grp, COUNT(*) AS n, SUM(val) AS s FROM pt GROUP BY grp ORDER BY grp")
}

// TestScanAggregateCorners pins the fused scan → aggregate where its
// chunked fold degenerates or its inputs go stale: a table below one
// morsel (one chunk, no phase), an empty selection, LIMIT 0, a LIMIT
// over the groups, and a group value the plan's value directory has
// never seen (rows appended after the statistics were taken) — which map
// aggregation skips on every path.
func TestScanAggregateCorners(t *testing.T) {
	forceParallel(t)
	const q = "SELECT grp, COUNT(*) AS n, SUM(val) AS s, MIN(id) AS lo FROM pt WHERE id >= 0 GROUP BY grp ORDER BY grp"
	for _, n := range []int{100, 2*morsel.Rows + 55} {
		cat := parCatalog(n)
		if rows := runParallelVsSerial(t, cat, q); len(rows) != 7 {
			t.Errorf("%d rows: %d groups, want 7", n, len(rows))
		}
		if rows := runParallelVsSerial(t, cat, q+" LIMIT 3"); len(rows) != 3 {
			t.Errorf("%d rows: LIMIT 3 returned %d groups", n, len(rows))
		}
		if rows := runParallelVsSerial(t, cat, q+" LIMIT 0"); len(rows) != 0 {
			t.Errorf("%d rows: LIMIT 0 returned %d groups", n, len(rows))
		}
		runParallelVsSerial(t, cat, "SELECT grp, COUNT(*) AS n FROM pt WHERE id < 0 GROUP BY grp")
		runParallelVsSerial(t, cat, "SELECT COUNT(*) AS n, SUM(val * 2) AS s FROM pt WHERE grp = ?", types.IntDatum(3))

		e, err := cat.Lookup("pt")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			e.Table.AppendRow(types.IntDatum(int64(n+i)), types.IntDatum(99), types.FloatDatum(1))
		}
		if p := mustPlan(t, cat, q); p.Agg.Alg != plan.MapAggregation {
			t.Fatalf("the absent-group case needs map aggregation, planned %v", p.Agg.Alg)
		}
		if rows := runParallelVsSerial(t, cat, q); len(rows) != 7 {
			t.Errorf("%d rows: a group absent from the directory surfaced: %v", n, rows)
		}
	}
}

func TestParallelScanParamPredicateInWorkers(t *testing.T) {
	forceParallel(t)
	cat := parCatalog(2*morsel.Rows + 55)
	// The predicate value arrives through the bind vector; every worker
	// must read the same slot.
	runParallelVsSerial(t, cat, "SELECT id, val FROM pt WHERE grp = ?",
		types.IntDatum(4))
	runParallelVsSerial(t, cat, "SELECT id FROM pt WHERE id >= ? AND grp <> ?",
		types.IntDatum(777), types.IntDatum(1))
}

// TestParallelScanLimitCancelsUnclaimedMorsels: once the completed morsel
// prefix satisfies the LIMIT, no worker claims another morsel. The claim
// hook holds every morsel but the first until the queue is cancelled, so
// when the first morsel's five rows cancel it each worker holds at most one
// morsel, whatever the scheduling: at most one claim per worker may
// happen, where a scan that ignored its limit would claim all 32.
func TestParallelScanLimitCancelsUnclaimedMorsels(t *testing.T) {
	forceParallel(t)
	const workers = 4 // runParallelVsSerial's parallel target
	cat := parCatalog(32 * morsel.Rows)
	var claims atomic.Int32
	deadline := time.Now().Add(10 * time.Second)
	scanClaimed = func(ph *parPhase, m int) {
		claims.Add(1)
		for m > 0 && !ph.queue.Cancelled() && time.Now().Before(deadline) {
			runtime.Gosched()
		}
	}
	t.Cleanup(func() { scanClaimed = nil })
	if rows := runParallelVsSerial(t, cat, "SELECT id FROM pt WHERE id >= 0 LIMIT 5"); len(rows) != 5 {
		t.Fatalf("LIMIT 5 returned %d rows", len(rows))
	}
	if n := claims.Load(); n < 1 || n > workers {
		t.Errorf("the parallel scan claimed %d morsels, want 1 to %d", n, workers)
	}
}

func TestParallelJoinAggCountsQueriesAndMorsels(t *testing.T) {
	forceParallel(t)
	cat := testCatalog() // sales (4000 rows) ⨝ prods with GROUP BY
	q := "SELECT cat, SUM(amount) AS total FROM sales, prods WHERE sales.prod = prods.prod_id GROUP BY cat ORDER BY cat"
	q0, _ := morsel.Stats()
	runParallelVsSerial(t, cat, q)
	q1, _ := morsel.Stats()
	if q1 <= q0 {
		t.Errorf("parallel join+agg did not count a parallel query (%d -> %d)", q0, q1)
	}
}

// TestParallelTraceRecordsPhases pins the EXPLAIN ANALYZE surface: a
// traced parallel execution records per-phase worker counts and
// per-morsel row counts that sum to the stage's output.
func TestParallelTraceRecordsPhases(t *testing.T) {
	forceParallel(t)
	cat := parCatalog(2*morsel.Rows + 100)
	stmt, err := sql.Parse("SELECT id FROM pt WHERE grp <> 5")
	if err != nil {
		t.Fatal(err)
	}
	opts := plan.DefaultOptions()
	opts.Parallelism = 4
	p, err := plan.BuildWithOptions(stmt, cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := plan.GetTrace()
	defer plan.PutTrace(tr)
	p.Trace = tr
	cq, err := Generate(p, OptO2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cq.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Parallel) == 0 {
		t.Fatal("traced parallel execution recorded no parallel phases")
	}
	ph := tr.Parallel[0]
	// The phase carries the name of the Stages entry it ran under.
	if ph.Stage != plan.TraceStageProject || ph.Workers < 1 {
		t.Errorf("unexpected parallel phase %+v", ph)
	}
	if len(tr.Stages) != 1 || tr.Stages[0].Name != ph.Stage {
		t.Errorf("phase %q does not match the recorded stages %+v", ph.Stage, tr.Stages)
	}
	var rows int64
	for _, r := range ph.MorselRows {
		rows += r
	}
	if rows != int64(out.NumRows()) {
		t.Errorf("morsel rows sum to %d, result has %d", rows, out.NumRows())
	}
}

// TestParPhaseRunReraisesWorkerPanic pins run's panic contract: a body
// that panics on a helper goroutine or on the caller surfaces as one
// panic on the calling goroutine, raised only after every worker has
// returned, with the queue cancelled so no further morsel is claimed.
func TestParPhaseRunReraisesWorkerPanic(t *testing.T) {
	for _, panicker := range []int{0, 2} {
		t.Run(fmt.Sprintf("worker-%d", panicker), func(t *testing.T) {
			const workers = 4
			ph := new(parPhase)
			ph.reset(64, workers, -1)
			var running, entered atomic.Int32
			release := make(chan struct{})
			var got any
			func() {
				defer func() { got = recover() }()
				ph.run(nil, workers, func(w int) {
					running.Add(1)
					defer running.Add(-1)
					// Every worker is inside its body before one panics, so
					// the others are provably still running at that point.
					if entered.Add(1) == workers {
						close(release)
					}
					<-release
					if w == panicker {
						panic(fmt.Sprintf("boom-%d", w))
					}
					// Nobody claims a morsel, so only the panic's Cancel ends
					// this wait (the deadline bounds a run without the fix).
					for start := time.Now(); !ph.queue.Cancelled() && time.Since(start) < 5*time.Second; {
						runtime.Gosched()
					}
				})
			}()
			if want := fmt.Sprintf("boom-%d", panicker); got != want {
				t.Fatalf("run re-raised %v, want %q", got, want)
			}
			if n := running.Load(); n != 0 {
				t.Errorf("%d workers still running after run returned", n)
			}
			if !ph.queue.Cancelled() {
				t.Error("queue not cancelled after a worker panic")
			}
		})
	}
}
