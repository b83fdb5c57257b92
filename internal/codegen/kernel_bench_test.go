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
		// A computed argument keeps the map tail off the direct side-tuple
		// path: it composes the aggregation tuple, then probes and updates.
		joinAggComputed = "SELECT d.label, COUNT(*) AS n, AVG(f.price * 2.0) AS mean FROM par_fact f, par_dims d WHERE f.grp = d.id AND f.price > 10.0 GROUP BY d.label"
		// Grouping on a merge join's key with no value directory (262144
		// distinct ids) streams: one group opens and closes per joined pair.
		selfJoinAgg = "SELECT a.id, COUNT(*) AS n, SUM(b.price) AS total FROM par_fact a, par_fact b WHERE a.id = b.id AND a.price > 500.0 GROUP BY a.id"
	)
	hybrid, merge := plan.HybridJoin, plan.MergeJoin
	sortAgg, hybridAgg := plan.SortAggregation, plan.HybridAggregation
	serial, both := []int{1}, []int{1, 2}
	kernels, chain := kernelCatalog(), chainCatalog()
	for _, c := range []struct {
		name, q string
		alg     *plan.JoinAlgorithm // nil: the planner's choice (fine partitions)
		agg     *plan.AggAlgorithm  // nil: the planner's choice (map, or stream over a merge join's order)
		workers []int
		cat     *catalog.Catalog
	}{
		{"scan-float-1pct", "SELECT id, price FROM par_fact WHERE price > 990.0", nil, nil, both, kernels},
		{"scan-int-6pct", "SELECT id, price FROM par_fact WHERE grp = 3", nil, nil, both, kernels},
		{"scan-int-all", "SELECT id, price FROM par_fact WHERE grp >= 0", nil, nil, both, kernels},
		{"joinagg-fine", joinAgg, nil, nil, both, kernels},
		{"joinagg-hybrid", joinAgg, &hybrid, nil, both, kernels},
		{"joinagg-merge", joinAgg, &merge, nil, both, kernels},
		{"joinproj-fine", joinProj, nil, nil, both, kernels},
		{"joinproj-hybrid", joinProj, &hybrid, nil, both, kernels},
		// The aggregation tails the rows above (all direct map tails) leave
		// untimed, each on the caller alone.
		{"aggtail-map-composed", joinAggComputed, nil, nil, serial, kernels},
		{"aggtail-sorted", joinAgg, nil, &sortAgg, serial, kernels},
		{"aggtail-partitioned", joinAgg, nil, &hybridAgg, serial, kernels},
		{"aggtail-stream", selfJoinAgg, &merge, nil, serial, kernels},
		// Two joins, the first staging straight into the second: what each
		// further join of a chain costs.
		{"chain3", chainQuery, nil, nil, both, chain},
	} {
		for _, w := range c.workers {
			b.Run(fmt.Sprintf("%s/workers-%d", c.name, w), func(b *testing.B) {
				stmt, err := sql.Parse(c.q)
				if err != nil {
					b.Fatal(err)
				}
				opts := plan.DefaultOptions()
				opts.Parallelism = w
				opts.ForceJoinAlg = c.alg
				opts.ForceAggAlg = c.agg
				p, err := plan.BuildWithOptions(stmt, c.cat, opts)
				if err != nil {
					b.Fatal(err)
				}
				cq, err := Generate(p, OptO2)
				if err != nil {
					b.Fatal(err)
				}
				if !cq.Fused {
					b.Fatalf("%s did not compile to a fused pipeline", c.name)
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
