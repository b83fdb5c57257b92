package hique

import (
	"fmt"
	"runtime"
	"testing"

	"hique/internal/catalog"
	"hique/internal/plan"
	"hique/internal/storage"
	"hique/internal/types"
)

// prepareBytes is the bytes one cold preparation of a fine-partition
// join with a map-aggregated GROUP BY allocates, over a join key whose
// value directory holds n values: the statement is prepared once to take
// the directories' snapshots and compile them, then runs times with the
// catalogue version bumped before each, as a plan-cache miss would be.
func prepareBytes(t *testing.T, n, runs int) uint64 {
	t.Helper()
	cat := catalog.New()
	dims := storage.NewTable("dims", types.NewSchema(types.Col("id", types.Int), types.CharCol("label", 8)))
	facts := storage.NewTable("facts", types.NewSchema(types.Col("k", types.Int), types.Col("price", types.Float)))
	for i := 0; i < n; i++ {
		dims.AppendRow(types.IntDatum(int64(i)), types.StringDatum(fmt.Sprintf("L%d", i%8)))
		facts.AppendRow(types.IntDatum(int64(n-1-i)), types.FloatDatum(float64(i%100)))
	}
	cat.Register(dims)
	cat.Register(facts)
	db := Open(WithCatalog(cat))
	db.opts.FinePartitionMaxValues = catalog.MaxDirectoryValues
	const q = "SELECT d.label, COUNT(*) AS n, SUM(f.price) AS total FROM facts f, dims d WHERE f.k = d.id GROUP BY d.label"
	pr, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	p := pr.art.plan
	if p.Joins[0].Alg != plan.FinePartitionJoin || p.Agg.Alg != plan.MapAggregation {
		t.Fatalf("n=%d: planned a %v join and %v aggregation, want fine partitioning and map aggregation", n, p.Joins[0].Alg, p.Agg.Alg)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cat.BumpVersion()
		if _, err := db.Prepare(q); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestColdPrepareDoesNotScaleWithDirectory pins that a plan-cache miss
// reuses the catalogue's directory snapshots and their compiled lookups:
// after the first preparation, preparing the same statement against a
// 100 000-value directory allocates what it does against a 1 000-value
// one, within a small constant (a copy of either directory is 8 000 or
// 800 000 bytes).
func TestColdPrepareDoesNotScaleWithDirectory(t *testing.T) {
	const runs = 20
	small, large := prepareBytes(t, 1000, runs), prepareBytes(t, 100000, runs)
	t.Logf("bytes per cold preparation: %d (1 000 values), %d (100 000 values)", small, large)
	if diff := int64(large) - int64(small); diff > 512 || diff < -512 {
		t.Fatalf("a cold preparation allocates %d bytes over a 1 000-value directory, %d over a 100 000-value one", small, large)
	}
}
