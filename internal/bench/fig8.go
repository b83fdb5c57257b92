package bench

import (
	"fmt"

	"hique/internal/codegen"
	"hique/internal/core"
	"hique/internal/dsm"
	"hique/internal/plan"
	"hique/internal/tpch"
	"hique/internal/volcano"
)

// Fig8 reproduces the TPC-H comparison (Figures 8a–8c): every supported
// TPC-H query (tpch.QueryNumbers) across the four engine design points.
// The stand-ins (DESIGN.md):
//
//	PostgreSQL -> generic iterator engine (NSM + interpreted Volcano)
//	System X   -> optimized iterator engine (NSM + specialised iterators)
//	MonetDB    -> DSM column store with operator-at-a-time execution
//	HIQUE      -> the holistic engine: the generated code that serves
//
// A fifth row times core.Engine, the staged-operator walk over the same
// kernels that the differential tests use as the oracle.
func Fig8(sf float64) Result {
	cat := tpch.Generate(tpch.Config{ScaleFactor: sf, Seed: 42})

	engines := []plan.Executor{
		volcano.NewGeneric(),
		volcano.NewOptimized(),
		dsm.NewEngine(),
		codegen.Executor{},
		core.NewEngine(),
	}
	labels := []string{
		"PostgreSQL-class (generic iterators)",
		"System X-class (optimized iterators)",
		"MonetDB-class (DSM column store)",
		"HIQUE (holistic)",
		"general walk (core.Engine)",
	}

	header := []string{"System"}
	for _, n := range tpch.QueryNumbers() {
		header = append(header, fmt.Sprintf("Q%d", n))
	}
	res := Result{
		ID:     "Fig8",
		Title:  fmt.Sprintf("TPC-H queries at SF %.2f (seconds)", sf),
		Header: header,
	}

	// Warm the DSM engine's vertical decomposition outside timing: a
	// column store keeps base data in DSM natively.
	for _, n := range tpch.QueryNumbers() {
		q, _ := tpch.Query(n)
		p := mustPlan(cat, q, plan.DefaultOptions())
		if _, err := engines[2].Execute(p); err != nil {
			panic(fmt.Sprintf("bench: warmup Q%d: %v", n, err))
		}
	}

	for i, e := range engines {
		row := []string{labels[i]}
		for _, n := range tpch.QueryNumbers() {
			q, _ := tpch.Query(n)
			p := mustPlan(cat, q, plan.DefaultOptions())
			row = append(row, fmt.Sprintf("%.3f", runTimed(e, p, 2)))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = []string{
		"Engine stand-ins per DESIGN.md; absolute times differ from the paper's hardware, shape comparisons hold.",
		"DSM decomposition of base tables is excluded from timing (column stores store DSM natively).",
		"HIQUE runs the generated pipeline (codegen.Executor, generation included); the general walk runs the same kernels as staged operators.",
	}
	return res
}
