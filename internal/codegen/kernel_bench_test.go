// BenchmarkFusedKernels times each fused kernel on its own — compiled
// pipeline in, pooled result out, no SQL front end or materialisation —
// at worker targets 1 (the caller-only instance) and 2 (morsel phases).
// It is the measurement behind DESIGN.md §8.3: build the test binary at
// two commits with `go test -c` and alternate them.
package codegen

import (
	"fmt"
	"testing"

	"hique/internal/catalog"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/types"
)

// kernelCatalog is the BENCH_parallel.json fixture: a 262144-row fact
// table (32 morsels) and a 16-row dimension.
func kernelCatalog() *catalog.Catalog {
	cat := catalog.New()
	fact := storage.NewTable("par_fact", types.NewSchema(
		types.Col("id", types.Int), types.Col("grp", types.Int),
		types.Col("price", types.Float)))
	for i := 0; i < 262144; i++ {
		fact.AppendRow(types.IntDatum(int64(i)), types.IntDatum(int64(i%16)),
			types.FloatDatum(float64(i%1000)))
	}
	cat.Register(fact)
	dims := storage.NewTable("par_dims", types.NewSchema(
		types.Col("id", types.Int), types.CharCol("label", 16)))
	for i := 0; i < 16; i++ {
		dims.AppendRow(types.IntDatum(int64(i)), types.StringDatum(fmt.Sprintf("dim-%02d", i)))
	}
	cat.Register(dims)
	return cat
}

func BenchmarkFusedKernels(b *testing.B) {
	const (
		joinAgg  = "SELECT d.label, COUNT(*) AS n, SUM(f.price) AS total FROM par_fact f, par_dims d WHERE f.grp = d.id AND f.price > 10.0 GROUP BY d.label"
		joinProj = "SELECT f.id, d.label FROM par_fact f, par_dims d WHERE f.grp = d.id AND f.price > 500.0"
	)
	hybrid, merge := plan.HybridJoin, plan.MergeJoin
	cat := kernelCatalog()
	for _, c := range []struct {
		name, q string
		alg     *plan.JoinAlgorithm // nil: the planner's choice (fine partitions)
	}{
		{"scan-float-1pct", "SELECT id, price FROM par_fact WHERE price > 990.0", nil},
		{"scan-int-6pct", "SELECT id, price FROM par_fact WHERE grp = 3", nil},
		{"scan-int-all", "SELECT id, price FROM par_fact WHERE grp >= 0", nil},
		{"joinagg-fine", joinAgg, nil},
		{"joinagg-hybrid", joinAgg, &hybrid},
		{"joinagg-merge", joinAgg, &merge},
		{"joinproj-fine", joinProj, nil},
		{"joinproj-hybrid", joinProj, &hybrid},
	} {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers-%d", c.name, w), func(b *testing.B) {
				stmt, err := sql.Parse(c.q)
				if err != nil {
					b.Fatal(err)
				}
				opts := plan.DefaultOptions()
				opts.Parallelism = w
				opts.ForceJoinAlg = c.alg
				p, err := plan.BuildWithOptions(stmt, cat, opts)
				if err != nil {
					b.Fatal(err)
				}
				cq, err := Generate(p, OptO2)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out, err := cq.Run()
					if err != nil {
						b.Fatal(err)
					}
					out.Release()
				}
			})
		}
	}
}
