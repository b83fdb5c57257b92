// Differential tests for morsel-driven parallel fused execution: at
// every tested worker count the parallel pipelines must return results
// byte-identical to the serial engines — row order included, because
// deterministic morsel stitching is part of the contract, not a
// best-effort property.
package enginetest

import (
	"strings"
	"testing"

	"hique/internal/catalog"
	"hique/internal/codegen"
	"hique/internal/core"
	"hique/internal/morsel"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/tpch"
	"hique/internal/volcano"
)

// parallelWorkerCounts spans the interesting shapes: forced serial, an
// even and an odd small team, and more workers than this machine (or
// the morsel count) can use.
var parallelWorkerCounts = []int{1, 2, 3, 8}

// lowThreshold forces parallel pipeline generation on the test-sized
// fixtures (the production threshold would keep them serial).
func lowThreshold(t *testing.T) {
	t.Helper()
	prev := codegen.SetParallelThreshold(1)
	t.Cleanup(func() { codegen.SetParallelThreshold(prev) })
}

// TestParallelCodegenAgreesWithAllEngines runs the full cross-engine
// corpus with parallel pipelines forced on, at every worker count: the
// parallel codegen engine must agree with every serial engine exactly
// as the serial codegen engine does.
func TestParallelCodegenAgreesWithAllEngines(t *testing.T) {
	lowThreshold(t)
	cat := fixture(13, 5000, 200, 800)
	for _, w := range parallelWorkerCounts {
		opts := plan.DefaultOptions()
		opts.Parallelism = w
		runCorpus(t, cat, opts)
	}
}

// TestParallelCodegenAgreesForcedAlgorithms pins the parallel join
// phase's two algorithm bodies (hybrid partition-merge and the
// fine-partition nested loop) plus the serial-only merge join fallback.
func TestParallelCodegenAgreesForcedAlgorithms(t *testing.T) {
	lowThreshold(t)
	for _, alg := range []plan.JoinAlgorithm{plan.MergeJoin, plan.HybridJoin, plan.FinePartitionJoin} {
		cat := fixture(17+int64(alg), 3000, 150, 500)
		for _, w := range parallelWorkerCounts {
			opts := plan.DefaultOptions()
			opts.Parallelism = w
			a := alg
			opts.ForceJoinAlg = &a
			runCorpus(t, cat, opts)
		}
	}
}

// TestParallelRowOrderMatchesSerial compares raw emission order (no
// multiset canonicalisation) between the serial fused pipeline and the
// parallel one at every worker count, under the planner's own algorithm
// choice and with each join algorithm forced. Both run the same
// kernels, so a difference can only come from how the morsel outputs
// are stitched together.
func TestParallelRowOrderMatchesSerial(t *testing.T) {
	lowThreshold(t)
	// ev spans three scan morsels, so the single-table pipelines — the
	// stitched scan and the chunk-merged scan → aggregate — split too.
	cat := fixture(14, 2*morsel.Rows+900, 200, 800)
	rowOrderMatchesSerial(t, cat, corpus)
	// TPC-H at SF 0.01: lineitem is eight morsels, orders two. The float
	// sums are not order-exact, so equal rendered rows across worker
	// counts mean the fold order did not move with the worker target.
	rowOrderMatchesSerial(t, tpchCatalog(), tpchStatements())
}

func rowOrderMatchesSerial(t *testing.T, cat *catalog.Catalog, stmts []string) {
	t.Helper()
	eng := codegen.Executor{}
	merge, hybrid, fine := plan.MergeJoin, plan.HybridJoin, plan.FinePartitionJoin
	for _, alg := range []*plan.JoinAlgorithm{nil, &merge, &hybrid, &fine} {
		name := "planner"
		if alg != nil {
			name = alg.String()
		}
		// rawRows runs q at one worker target and returns its rows in
		// emission order.
		rawRows := func(stmt *sql.SelectStmt, q string, workers int) []string {
			opts := plan.DefaultOptions()
			opts.Parallelism = workers
			opts.ForceJoinAlg = alg
			p, err := plan.BuildWithOptions(stmt, cat, opts)
			if err != nil {
				t.Fatalf("%s: plan %q workers=%d: %v", name, q, workers, err)
			}
			out, err := eng.Execute(p)
			if err != nil {
				t.Fatalf("%s: %q workers=%d: %v", name, q, workers, err)
			}
			return canonical(out, true)
		}
		for _, q := range stmts {
			stmt, err := sql.Parse(q)
			if err != nil {
				t.Fatalf("parse %q: %v", q, err)
			}
			ref := rawRows(stmt, q, 1)
			for _, w := range parallelWorkerCounts[1:] {
				got := rawRows(stmt, q, w)
				if len(got) != len(ref) {
					t.Errorf("%s: %q workers=%d: %d rows, serial returned %d", name, q, w, len(got), len(ref))
					continue
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Errorf("%s: %q workers=%d: row %d differs from serial:\n  serial:   %s\n  parallel: %s",
							name, q, w, i, ref[i], got[i])
						break
					}
				}
			}
		}
	}
}

func tpchCatalog() *catalog.Catalog {
	return tpch.Generate(tpch.Config{ScaleFactor: 0.01, Seed: 42})
}

func tpchStatements() []string {
	var out []string
	for _, n := range tpch.QueryNumbers() {
		q, _ := tpch.Query(n)
		out = append(out, q)
	}
	return out
}

// TestParallelScanAggregateAndTPCH sweeps single-table aggregation (the
// aggregate matrix, the Q1 and Q6 shapes, empty selections, LIMIT 0,
// CHAR predicates) over a table of several morsels, and TPC-H
// Q1/Q3/Q6/Q10, across workers {1, 2, 3, 8}, as Prepare with literals
// compiles them and as DB.Query's auto-parameterisation (or Prepare with
// '?') does. The reference rows come from core's walk and
// optimized-iterators; dm, da and db stay below one morsel throughout.
func TestParallelScanAggregateAndTPCH(t *testing.T) {
	lowThreshold(t)
	cat := fixture(15, 2*morsel.Rows+900, 200, 800)
	var single []string
	for _, q := range corpus {
		if strings.Contains(q, "FROM ev") && !strings.Contains(q, "FROM ev,") &&
			!strings.Contains(q, "JOIN") && !strings.Contains(q, "HAVING") {
			single = append(single, q)
		}
	}
	if len(single) < 30 {
		t.Fatalf("only %d single-table statements selected from the corpus", len(single))
	}
	tc := tpchCatalog()
	engs := []plan.Executor{core.NewEngine(), volcano.NewOptimized(), codegen.Executor{}}
	for _, w := range parallelWorkerCounts {
		opts := plan.DefaultOptions()
		opts.Parallelism = w
		runQueries(t, cat, opts, single, engs, 0)
		runQueries(t, tc, opts, tpchStatements(), engs, 1e-9)
	}
}
