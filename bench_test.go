package hique

// One testing.B benchmark per table and figure of the paper's evaluation
// (§VI). Each benchmark drives the corresponding experiment runner from
// internal/bench at a reduced scale suitable for `go test -bench`; the
// full paper-sized sweeps are produced by `cmd/hique-bench` (see
// EXPERIMENTS.md for recorded paper-vs-measured results).

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hique/internal/bench"
	"hique/internal/codegen"
	"hique/internal/core"
	"hique/internal/hardcoded"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/tpch"
	"hique/internal/volcano"
)

const (
	benchScale = 0.02 // microbenchmark scale relative to the paper
	benchSF    = 0.01 // TPC-H scale factor for -bench runs
)

// BenchmarkFig5JoinProfiling regenerates Figures 5a-5d (join query
// profiling across the five code shapes).
func BenchmarkFig5JoinProfiling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig5(benchScale)
	}
}

// BenchmarkFig6AggProfiling regenerates Figures 6a-6d (aggregation
// profiling across the five code shapes).
func BenchmarkFig6AggProfiling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig6(benchScale)
	}
}

// BenchmarkTab2OptimisationLevels regenerates Table II at the level the
// test binary was compiled at (-O0 under -gcflags='hique/...=-N -l').
func BenchmarkTab2OptimisationLevels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Tab2(benchScale)
	}
}

// BenchmarkFig7aJoinScalability regenerates Figure 7a.
func BenchmarkFig7aJoinScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig7a(benchScale)
	}
}

// BenchmarkFig7bMultiwayJoins regenerates Figure 7b.
func BenchmarkFig7bMultiwayJoins(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig7b(benchScale)
	}
}

// BenchmarkFig7cJoinSelectivity regenerates Figure 7c.
func BenchmarkFig7cJoinSelectivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig7c(benchScale / 10)
	}
}

// BenchmarkFig7dGroupCardinality regenerates Figure 7d.
func BenchmarkFig7dGroupCardinality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig7d(benchScale)
	}
}

// BenchmarkFig8TPCH regenerates Figure 8 (TPC-H Q1/Q3/Q10 across the four
// engine design points).
func BenchmarkFig8TPCH(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig8(benchSF)
	}
}

// BenchmarkTab3PreparationCost regenerates Table III (query preparation
// cost).
func BenchmarkTab3PreparationCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Tab3(benchSF)
	}
}

// --- Focused micro-benchmarks -------------------------------------------------
//
// The following benchmarks time single building blocks so `-benchmem` can
// attribute allocation behaviour per engine; they complement the
// figure-level runners above.

func benchCatalogAndPlan(b *testing.B, query string) *plan.Plan {
	b.Helper()
	cat := tpch.Generate(tpch.Config{ScaleFactor: benchSF, Seed: 42})
	stmt, err := sql.Parse(query)
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Build(stmt, cat)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkQ1Holistic times TPC-H Q1 on the holistic engine: the
// generated code, each execution generating the plan and running it.
func BenchmarkQ1Holistic(b *testing.B) {
	p := benchCatalogAndPlan(b, tpch.Q1)
	eng := codegen.Executor{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Execute(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ1GenericIterators times TPC-H Q1 on the generic iterator
// engine (the PostgreSQL-class baseline).
func BenchmarkQ1GenericIterators(b *testing.B) {
	p := benchCatalogAndPlan(b, tpch.Q1)
	eng := volcano.NewGeneric()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Execute(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ3Holistic times TPC-H Q3 on the holistic engine: the
// generated code, each execution generating the plan and running it.
func BenchmarkQ3Holistic(b *testing.B) {
	p := benchCatalogAndPlan(b, tpch.Q3)
	eng := codegen.Executor{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Execute(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodeGeneration times template instantiation + compilation for
// TPC-H Q3 (the per-query preparation cost the paper argues is small).
func BenchmarkCodeGeneration(b *testing.B) {
	p := benchCatalogAndPlan(b, tpch.Q3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codegen.Generate(p, codegen.OptO2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeJoinShapes times the §VI-A merge join across the five code
// shapes (the real-time axis of Figure 5a).
func BenchmarkMergeJoinShapes(b *testing.B) {
	outer := hardcoded.BuildJoinInput("outer", 2000, 20)
	inner := hardcoded.BuildJoinInput("inner", 2000, 20)
	for _, shape := range hardcoded.Shapes() {
		b.Run(shape.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hardcoded.RunMergeJoin(shape, outer, inner, nil)
			}
		})
	}
}

// BenchmarkMapAggShapes times §VI-A map aggregation across the five code
// shapes (the real-time axis of Figure 6b).
func BenchmarkMapAggShapes(b *testing.B) {
	input := hardcoded.BuildAggInput(50000, 10)
	for _, shape := range hardcoded.Shapes() {
		b.Run(shape.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hardcoded.RunMapAgg(shape, input, 10, nil)
			}
		})
	}
}

// BenchmarkParallelFusedExecution times the morsel-driven parallel
// fused pipelines at 1/2/4 workers on the serving join+agg shape. The
// fixture is test-sized, so the serial threshold is dropped to force
// parallel generation — this keeps the parallel paths in the CI
// `-benchtime 1x` smoke; the authoritative scaling numbers live in
// BENCH_parallel.json (via cmd/hique-bench -json -suite parallel),
// whose fixture is big enough to parallelise naturally.
func BenchmarkParallelFusedExecution(b *testing.B) {
	prev := codegen.SetParallelThreshold(1)
	defer codegen.SetParallelThreshold(prev)
	const rows = 4096
	const q = "SELECT d.label, COUNT(*) AS n, SUM(f.price) AS total " +
		"FROM bench_items f, bench_dims d WHERE f.grp = d.id AND f.price > 10.0 GROUP BY d.label"
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			db := Open(WithPlanCache(64), WithParallelism(w))
			if err := db.CreateTable("bench_items", Int("id"), Int("grp"), Float("price")); err != nil {
				b.Fatal(err)
			}
			if err := db.CreateTable("bench_dims", Int("id"), Char("label", 16)); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < rows; i++ {
				if err := db.Insert("bench_items", int64(i), int64(i%16), float64(i%1000)); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 16; i++ {
				if err := db.Insert("bench_dims", int64(i), fmt.Sprintf("dim-%02d", i)); err != nil {
					b.Fatal(err)
				}
			}
			var res Result
			if err := db.QueryInto(&res, q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.QueryInto(&res, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Serving-subsystem benchmarks --------------------------------------------
//
// These time the query-serving layer: the compiled-plan cache (cold
// preparation vs warm hit; the amortisation of Table III's preparation
// cost) and concurrent end-to-end throughput under per-table reader
// locks.

// servingQuery joins fact and dimension and aggregates: enough operator
// descriptors that preparation (parse -> optimise -> generate -> compile)
// is a visible fraction of a small-table execution, as in the paper's
// Table III workloads.
const servingQuery = "SELECT d.label, COUNT(*) AS n, SUM(f.price) AS total " +
	"FROM bench_items f, bench_dims d WHERE f.grp = d.id AND f.price > 10.0 " +
	"GROUP BY d.label ORDER BY d.label"

func servingDB(b *testing.B, options ...Option) *DB {
	b.Helper()
	db := Open(options...)
	if err := db.CreateTable("bench_items", Int("id"), Int("grp"), Float("price")); err != nil {
		b.Fatal(err)
	}
	if err := db.CreateTable("bench_dims", Int("id"), Char("label", 16)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := db.Insert("bench_items", int64(i), int64(i%16), float64(i%1000)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		if err := db.Insert("bench_dims", int64(i), fmt.Sprintf("dim-%02d", i)); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkServingColdVsWarm compares a repeated query against a cold
// and a warm plan cache: cold misses every time (the catalogue version
// is bumped between calls, as DDL or stats refresh would) and pays
// parse -> optimise -> generate -> compile before executing; warm pays
// one lexer pass and runs the cached executable.
func BenchmarkServingColdVsWarm(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		db := servingDB(b, WithPlanCache(64))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db.Catalog().BumpVersion() // invalidate: every lookup misses
			if _, err := db.Query(servingQuery); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if s := db.Stats(); s.Cache.Hits != 0 {
			b.Fatalf("cold run should never hit the cache: %+v", s.Cache)
		}
	})
	b.Run("warm", func(b *testing.B) {
		db := servingDB(b, WithPlanCache(64))
		if _, err := db.Query(servingQuery); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(servingQuery); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if s := db.Stats(); s.Cache.Hits < uint64(b.N) {
			b.Fatalf("warm run should hit the cache: %+v", s.Cache)
		}
	})
}

// BenchmarkJoinAggServing measures the fused join+aggregation pipeline
// (DESIGN.md §4.5) on the warm analytics shape — two-table equi-join with
// GROUP BY — against core's operator walk executing the exact same plan.
// The authoritative recorded numbers live in BENCH_serving.json
// (JoinAgg/*, via cmd/hique-bench -json); this wrapper keeps the shape in
// the `go test -bench` smoke.
func BenchmarkJoinAggServing(b *testing.B) {
	const rows = 4096
	joinDB := func(b *testing.B) *DB {
		b.Helper()
		db := Open(WithPlanCache(64))
		if err := db.CreateTable("bench_items", Int("id"), Int("grp"), Float("price")); err != nil {
			b.Fatal(err)
		}
		if err := db.CreateTable("bench_dims", Int("id"), Char("label", 16)); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := db.Insert("bench_items", int64(i), int64(i%16), float64(i%1000)); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 16; i++ {
			if err := db.Insert("bench_dims", int64(i), fmt.Sprintf("dim-%02d", i)); err != nil {
				b.Fatal(err)
			}
		}
		return db
	}
	const q = "SELECT d.label, COUNT(*) AS n, SUM(f.price) AS total " +
		"FROM bench_items f, bench_dims d WHERE f.grp = d.id AND f.price > 10.0 GROUP BY d.label"
	warm := func(b *testing.B, db *DB) {
		b.Helper()
		var res Result
		if err := db.QueryInto(&res, q); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.QueryInto(&res, q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("warm-fused", func(b *testing.B) {
		warm(b, joinDB(b))
	})
	b.Run("warm-general", func(b *testing.B) {
		p, _, unlock, err := joinDB(b).planLocked(q)
		if err != nil {
			b.Fatal(err)
		}
		unlock()
		eng := core.NewEngine()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Execute(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPointQueryShapeCache measures the production shape the plan
// cache existed for: N same-shape point queries with N distinct literals
// (`SELECT ... WHERE id = <value>`, a different value every call).
//
//   - auto-param: the statement collapses to its parameterized shape, so
//     the workload compiles once and then always hits (hit% ≈ 100).
//   - explicit-params: the client binds '?' itself; same single compiled
//     artefact, minus the literal-lifting lexer pass.
//
// The hit% metric comes from the plan-cache counters; see EXPERIMENTS.md
// for recorded numbers.
func BenchmarkPointQueryShapeCache(b *testing.B) {
	const rows = 4096
	pointDB := func(b *testing.B, options ...Option) *DB {
		b.Helper()
		db := Open(options...)
		if err := db.CreateTable("bench_points", Int("id"), Float("v")); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := db.Insert("bench_points", int64(i), float64(i)*0.5); err != nil {
				b.Fatal(err)
			}
		}
		return db
	}
	reportHitRate := func(b *testing.B, db *DB) {
		s := db.Stats()
		if total := s.Cache.Hits + s.Cache.Misses; total > 0 {
			b.ReportMetric(float64(s.Cache.Hits)/float64(total)*100, "hit%")
		}
	}
	b.Run("auto-param", func(b *testing.B) {
		db := pointDB(b, WithPlanCache(256))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(fmt.Sprintf("SELECT v FROM bench_points WHERE id = %d", i%rows)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportHitRate(b, db)
	})
	b.Run("explicit-params", func(b *testing.B) {
		db := pointDB(b, WithPlanCache(256))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query("SELECT v FROM bench_points WHERE id = ?", i%rows); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportHitRate(b, db)
	})
}

// BenchmarkServingConcurrency drives the warm-cache serving path from 1
// to 16 goroutines sharing one DB (the per-table RWMutex read path).
func BenchmarkServingConcurrency(b *testing.B) {
	for _, g := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			db := servingDB(b, WithPlanCache(64))
			if _, err := db.Query(servingQuery); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			errc := make(chan error, g)
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := db.Query(servingQuery); err != nil {
							errc <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errc)
			if err := <-errc; err != nil {
				b.Fatal(err)
			}
		})
	}
}
