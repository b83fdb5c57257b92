package codegen

import (
	"testing"

	"hique/internal/core"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/types"
)

// Regression tests for the contained-panic arena leak (hique-vet:
// arenaowner): a panic inside the fused pipeline unwinds to the serving
// layer's containPanic, which never receives the result table — run
// itself must release the pages it acquired, or the arena balance drifts
// by one result set per contained panic.

func planWith(t *testing.T, q string, opts plan.Options) *plan.Plan {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.BuildWithOptions(stmt, testCatalog(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mustPanic runs fn expecting a panic, returning normally either way.
func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected the sabotaged pipeline to panic")
		}
	}()
	fn()
}

func TestFusedRunReleasesArenaOnPanic(t *testing.T) {
	p := planWith(t, "SELECT sale_id, qty FROM sales", plan.DefaultOptions())
	f, err := newFused(p)
	if err != nil {
		t.Fatalf("plan did not compile to a fused scan: %v", err)
	}
	// Let the scan append enough rows to draw real pages from the arena,
	// then blow up mid-stream: the pages already inside `out` are exactly
	// what leaked before run released on the unwind path.
	orig := f.st.Project
	rows := 0
	f.st.Project = func(sc *core.Scratch, data []byte, w int, sel []int32, dst []byte) {
		if rows += len(sel); rows > 600 {
			panic("sabotaged projector")
		}
		orig(sc, data, w, sel, dst)
	}
	before, _ := storage.ArenaStats()
	mustPanic(t, func() { f.run(nil) })
	if after, _ := storage.ArenaStats(); after != before {
		t.Errorf("arena pages leaked across contained panic: inUse %d -> %d", before, after)
	}
}

func TestFusedJoinRunReleasesArenaOnPanic(t *testing.T) {
	p := planWith(t, "SELECT sale_id, cat FROM sales, prods WHERE sales.prod = prods.prod_id ORDER BY sale_id", plan.DefaultOptions())
	f, err := newFusedJoin(p)
	if err != nil {
		t.Fatalf("plan did not compile to a fused join: %v", err)
	}
	if f.sortKey == nil {
		t.Fatal("ORDER BY plan has no sort key")
	}
	// The join itself completes (its result holds arena pages); the sort
	// then panics before SortTablePooled appends anything — its key reads
	// past the result's tuples — so any post-test imbalance is the join
	// result failing to release.
	bad := core.CompileKey(types.NewSchema(types.CharCol("pad", 4096), types.Col("k", types.Int)), []int{1})
	f.sortKey = &bad
	before, _ := storage.ArenaStats()
	mustPanic(t, func() { f.run(nil) })
	if after, _ := storage.ArenaStats(); after != before {
		t.Errorf("arena pages leaked across contained panic: inUse %d -> %d", before, after)
	}
}
