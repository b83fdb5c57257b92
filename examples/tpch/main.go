// TPC-H example: generate the benchmark dataset, run the paper's three
// queries (1, 3, 10) on all four engine design points, and print the
// comparison the paper reports in Figure 8.
package main

import (
	"flag"
	"fmt"
	"time"

	"hique/internal/codegen"
	"hique/internal/dsm"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/tpch"
	"hique/internal/volcano"
)

// holistic is the paper's engine: the plan generated and compiled at
// -O2, which runs the fused pipelines.
var holistic = codegen.Executor{}

func main() {
	sf := flag.Float64("sf", 0.05, "TPC-H scale factor")
	flag.Parse()

	fmt.Printf("generating TPC-H at SF %.2f...\n", *sf)
	start := time.Now()
	cat := tpch.Generate(tpch.Config{ScaleFactor: *sf, Seed: 42})
	li, _ := cat.Lookup("lineitem")
	fmt.Printf("done in %s (%d lineitems)\n\n", time.Since(start).Round(time.Millisecond), li.Table.NumRows())

	engines := []plan.Executor{
		volcano.NewGeneric(),
		volcano.NewOptimized(),
		dsm.NewEngine(),
		holistic,
	}

	fmt.Printf("%-22s %10s %10s %10s\n", "engine", "Q1", "Q3", "Q10")
	for _, e := range engines {
		fmt.Printf("%-22s", e.Name())
		for _, n := range tpch.QueryNumbers() {
			q, _ := tpch.Query(n)
			stmt, err := sql.Parse(q)
			if err != nil {
				panic(err)
			}
			p, err := plan.Build(stmt, cat)
			if err != nil {
				panic(err)
			}
			st := time.Now()
			if _, err := e.Execute(p); err != nil {
				panic(err)
			}
			fmt.Printf(" %9.3fs", time.Since(st).Seconds())
		}
		fmt.Println()
	}

	// Show Q1's answer from the holistic engine.
	q, _ := tpch.Query(1)
	stmt, _ := sql.Parse(q)
	p, _ := plan.Build(stmt, cat)
	out, err := holistic.Execute(p)
	if err != nil {
		panic(err)
	}
	fmt.Println("\nTPC-H Q1 result (holistic engine):")
	s := out.Schema()
	fmt.Println("flag status      sum_qty   count")
	out.Scan(func(t []byte) bool {
		fmt.Printf("%4s %6s %12.0f %7d\n",
			s.GetDatum(t, 0).S, s.GetDatum(t, 1).S, s.GetDatum(t, 2).F,
			s.GetDatum(t, 9).I)
		return true
	})
}
