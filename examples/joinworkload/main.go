// Join-team example: the Figure 7(b) scenario. A fact table is joined with
// a growing number of dimension tables on one shared key; HIQUE's join
// teams evaluate all of them in a single nested-loops segment with no
// intermediate materialisation, while binary plans materialise after every
// join.
package main

import (
	"flag"
	"fmt"
	"time"

	"hique/internal/catalog"
	"hique/internal/codegen"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/types"
)

func buildTable(name, prefix string, rows, distinct int) *storage.Table {
	t := storage.NewTable(name, types.NewSchema(
		types.Col(prefix+"key", types.Int),
		types.Col(prefix+"val", types.Int)))
	for i := 0; i < rows; i++ {
		t.AppendRow(types.IntDatum(int64(i%distinct)), types.IntDatum(int64(i)))
	}
	return t
}

func main() {
	factRows := flag.Int("fact", 200000, "fact table rows")
	dimRows := flag.Int("dim", 20000, "rows per dimension table")
	maxDims := flag.Int("dims", 6, "maximum number of dimension tables")
	flag.Parse()

	fmt.Printf("%-6s %14s %14s %9s\n", "tables", "binary merge", "team merge", "speedup")
	for k := 2; k <= *maxDims+1; k++ {
		cat := catalog.New()
		cat.Register(buildTable("fact", "f", *factRows, *dimRows))
		query := "SELECT fval FROM fact"
		where := ""
		for j := 1; j < k; j++ {
			prefix := fmt.Sprintf("d%d", j)
			cat.Register(buildTable(fmt.Sprintf("dim%d", j), prefix, *dimRows, *dimRows))
			query += fmt.Sprintf(", dim%d", j)
			if j == 1 {
				where = " WHERE fact.fkey = dim1.d1key"
			} else {
				where += fmt.Sprintf(" AND dim%d.d%dkey = dim%d.d%dkey", j-1, j-1, j, j)
			}
		}
		query += where

		run := func(teams bool) time.Duration {
			opts := plan.DefaultOptions()
			alg := plan.MergeJoin
			opts.ForceJoinAlg = &alg
			opts.EnableJoinTeams = teams
			stmt, err := sql.Parse(query)
			if err != nil {
				panic(err)
			}
			p, err := plan.BuildWithOptions(stmt, cat, opts)
			if err != nil {
				panic(err)
			}
			start := time.Now()
			if _, err := (codegen.Executor{}).Execute(p); err != nil {
				panic(err)
			}
			return time.Since(start)
		}

		binary := run(false)
		team := run(true)
		fmt.Printf("%-6d %13.3fs %13.3fs %8.2fx\n",
			k, binary.Seconds(), team.Seconds(), binary.Seconds()/team.Seconds())
	}
	fmt.Println("\nThe team plan is one deeply nested loop over all inputs (paper §V-B);")
	fmt.Println("the binary plan materialises an intermediate table after every join.")
}
