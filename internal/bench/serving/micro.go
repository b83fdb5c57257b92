// Package serving holds the machine-readable serving micro-benchmarks
// behind cmd/hique-bench -json. It lives apart from internal/bench
// because it drives the public hique API (which internal/bench must not
// import: the root package's benchmark file imports internal/bench).
package serving

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"hique"
)

// MicroResult is one machine-readable serving micro-benchmark row: the
// schema of the BENCH_*.json files cmd/hique-bench -json writes so the
// serving-path perf trajectory (latency and allocation behaviour) can be
// compared across revisions.
type MicroResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

func microResult(name string, r testing.BenchmarkResult) MicroResult {
	return MicroResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// Micro runs the serving micro-benchmarks — the workloads of
// BenchmarkPointQueryShapeCache and BenchmarkServingColdVsWarm, driven
// through testing.Benchmark so they run outside `go test` — and returns
// their measurements.
func Micro() []MicroResult {
	const pointRows = 4096

	pointDB := func(options ...hique.Option) *hique.DB {
		db := hique.Open(options...)
		must(db.CreateTable("bench_points", hique.Int("id"), hique.Float("v")))
		for i := 0; i < pointRows; i++ {
			must(db.Insert("bench_points", int64(i), float64(i)*0.5))
		}
		return db
	}
	servingDB := func(options ...hique.Option) *hique.DB {
		db := hique.Open(options...)
		must(db.CreateTable("bench_items", hique.Int("id"), hique.Int("grp"), hique.Float("price")))
		must(db.CreateTable("bench_dims", hique.Int("id"), hique.Char("label", 16)))
		for i := 0; i < 200; i++ {
			must(db.Insert("bench_items", int64(i), int64(i%16), float64(i%1000)))
		}
		for i := 0; i < 16; i++ {
			must(db.Insert("bench_dims", int64(i), fmt.Sprintf("dim-%02d", i)))
		}
		return db
	}
	const servingQuery = "SELECT d.label, COUNT(*) AS n, SUM(f.price) AS total " +
		"FROM bench_items f, bench_dims d WHERE f.grp = d.id AND f.price > 10.0 " +
		"GROUP BY d.label ORDER BY d.label"

	var out []MicroResult
	run := func(name string, fn func(b *testing.B)) {
		out = append(out, microResult(name, testing.Benchmark(fn)))
	}

	run("PointQueryShapeCache/auto-param", func(b *testing.B) {
		db := pointDB(hique.WithPlanCache(256))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(fmt.Sprintf("SELECT v FROM bench_points WHERE id = %d", i%pointRows)); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("PointQueryShapeCache/explicit-params", func(b *testing.B) {
		db := pointDB(hique.WithPlanCache(256))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query("SELECT v FROM bench_points WHERE id = ?", i%pointRows); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("ServingColdVsWarm/cold", func(b *testing.B) {
		db := servingDB(hique.WithPlanCache(64))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db.Catalog().BumpVersion()
			if _, err := db.Query(servingQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("ServingColdVsWarm/warm", func(b *testing.B) {
		db := servingDB(hique.WithPlanCache(64))
		if _, err := db.Query(servingQuery); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(servingQuery); err != nil {
				b.Fatal(err)
			}
		}
	})

	// JoinAgg: the fused join+aggregation pipeline, the analytics serving
	// shape of DESIGN.md §4.5. warm-merge-indexed adds
	// B+-trees on both join keys, which flips the planner to the merge
	// join with the dimension side streamed off the index in key order.
	const joinRows = 4096
	joinDB := func(options ...hique.Option) *hique.DB {
		db := hique.Open(options...)
		must(db.CreateTable("bench_items", hique.Int("id"), hique.Int("grp"), hique.Float("price")))
		must(db.CreateTable("bench_dims", hique.Int("id"), hique.Char("label", 16)))
		for i := 0; i < joinRows; i++ {
			must(db.Insert("bench_items", int64(i), int64(i%16), float64(i%1000)))
		}
		for i := 0; i < 16; i++ {
			must(db.Insert("bench_dims", int64(i), fmt.Sprintf("dim-%02d", i)))
		}
		return db
	}
	const joinAggQuery = "SELECT d.label, COUNT(*) AS n, SUM(f.price) AS total " +
		"FROM bench_items f, bench_dims d WHERE f.grp = d.id AND f.price > 10.0 GROUP BY d.label"
	const joinLimitQuery = "SELECT f.id, d.label FROM bench_items f, bench_dims d " +
		"WHERE f.grp = d.id AND f.price > 900.0 LIMIT 32"
	warmJoin := func(b *testing.B, db *hique.DB, query string) {
		if _, err := db.Query(query); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(query); err != nil {
				b.Fatal(err)
			}
		}
	}
	run("JoinAgg/warm-fused", func(b *testing.B) {
		warmJoin(b, joinDB(hique.WithPlanCache(64)), joinAggQuery)
	})
	run("JoinAgg/warm-merge-indexed", func(b *testing.B) {
		// Both join keys unique and indexed: the planner selects the
		// merge join and the fused pipeline streams both sides off the
		// B+-trees in key order, with no sort at all.
		db := joinDB(hique.WithPlanCache(64))
		must(db.BuildIndex("bench_items", "id"))
		must(db.BuildIndex("bench_dims", "id"))
		warmJoin(b, db, "SELECT f.id, d.label FROM bench_items f, bench_dims d WHERE f.id = d.id AND f.price > 10.0")
	})
	run("JoinAgg/warm-join-limit", func(b *testing.B) {
		warmJoin(b, joinDB(hique.WithPlanCache(64)), joinLimitQuery)
	})
	// The serving-loop spelling: a pooled Result recycled across calls
	// (QueryInto, the HTTP handler's pattern), measuring the warm-hit
	// allocation floor of a fused join + GROUP BY aggregate.
	run("JoinAgg/warm-hit-into", func(b *testing.B) {
		const q = "SELECT d.id, COUNT(*) AS n, SUM(f.price) AS total " +
			"FROM bench_items f, bench_dims d WHERE f.grp = d.id AND f.price > 10.0 GROUP BY d.id LIMIT 4"
		db := joinDB(hique.WithPlanCache(64))
		var res hique.Result
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
	run("JoinAgg/cold", func(b *testing.B) {
		db := joinDB(hique.WithPlanCache(64))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db.Catalog().BumpVersion()
			if _, err := db.Query(joinAggQuery); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Ingest: the write path's batching economics. One op = ingestRows
	// rows, either as ingestRows single-row INSERT statements (each pays
	// lock + cache lookup + stats invalidation) or as one multi-VALUES
	// statement (per-statement costs paid once). The batched shape must
	// stay >= 5x faster per row.
	const ingestRows = 1000
	ingestDB := func() *hique.DB {
		db := hique.Open(hique.WithPlanCache(64))
		must(db.CreateTable("bench_ingest", hique.Int("id"), hique.Float("v")))
		return db
	}
	run("Ingest/single-row-statements", func(b *testing.B) {
		db := ingestDB()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < ingestRows; j++ {
				if _, err := db.Exec("INSERT INTO bench_ingest VALUES (?, ?)", j, float64(j)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	run("Ingest/multi-values-batch", func(b *testing.B) {
		db := ingestDB()
		var sb strings.Builder
		sb.WriteString("INSERT INTO bench_ingest VALUES ")
		for j := 0; j < ingestRows; j++ {
			if j > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %g)", j, float64(j))
		}
		stmt := sb.String()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res, err := db.Exec(stmt); err != nil || res.RowsAffected != ingestRows {
				b.Fatalf("batch insert: %v / %+v", err, res)
			}
		}
	})
	run("Ingest/prepared-single-row", func(b *testing.B) {
		db := ingestDB()
		ins, err := db.PrepareExec("INSERT INTO bench_ingest VALUES (?, ?)")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < ingestRows; j++ {
				if _, err := ins.Run(j, float64(j)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	// IngestDurable: the same batched shape with the WAL on, one row per
	// fsync policy — the price of the durability guarantee per 1000
	// acknowledged rows. single-row-fsync-always is the worst case: a
	// serial client pays one physical fsync per statement (group commit
	// only batches concurrent writers).
	durableDB := func(b *testing.B, mode hique.FsyncMode) (*hique.DB, func()) {
		dir, err := os.MkdirTemp("", "hique-bench-wal-")
		if err != nil {
			b.Fatal(err)
		}
		db, err := hique.OpenDurable(dir, hique.WithPlanCache(64), hique.WithFsync(mode),
			hique.WithFsyncInterval(10*time.Millisecond))
		if err != nil {
			os.RemoveAll(dir)
			b.Fatal(err)
		}
		must(db.CreateTable("bench_ingest", hique.Int("id"), hique.Float("v")))
		return db, func() {
			db.Close()
			os.RemoveAll(dir)
		}
	}
	batchStmt := func() string {
		var sb strings.Builder
		sb.WriteString("INSERT INTO bench_ingest VALUES ")
		for j := 0; j < ingestRows; j++ {
			if j > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %g)", j, float64(j))
		}
		return sb.String()
	}
	for _, mode := range []hique.FsyncMode{hique.FsyncAlways, hique.FsyncInterval, hique.FsyncOff} {
		mode := mode
		run("IngestDurable/batch-fsync-"+mode.String(), func(b *testing.B) {
			db, cleanup := durableDB(b, mode)
			defer cleanup()
			stmt := batchStmt()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, err := db.Exec(stmt); err != nil || res.RowsAffected != ingestRows {
					b.Fatalf("durable batch insert: %v / %+v", err, res)
				}
			}
		})
	}
	run("IngestDurable/single-row-fsync-always", func(b *testing.B) {
		db, cleanup := durableDB(b, hique.FsyncAlways)
		defer cleanup()
		ins, err := db.PrepareExec("INSERT INTO bench_ingest VALUES (?, ?)")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < ingestRows; j++ {
				if _, err := ins.Run(j, float64(j)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	return out
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
