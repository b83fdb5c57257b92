// Command hique-explain shows what the optimizer and the code generator do
// with a query: the operator descriptor list (Fig. 3 input) and the
// generated query-specific source file (Fig. 3 output).
//
// Usage:
//
//	hique-explain -sf 0.01 "SELECT ... FROM lineitem ..."
//	hique-explain -sf 0.01 -q 1          # TPC-H Query 1
//	hique-explain -dir ./data "SELECT ..."   # against hique-gen output
//	hique-explain -analyze -q 1          # EXPLAIN ANALYZE: run + stage stats
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hique"
	"hique/internal/catalog"
	"hique/internal/codegen"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/tpch"
)

func main() {
	sf := flag.Float64("sf", 0.01, "generate an in-memory TPC-H catalogue at this scale factor")
	dir := flag.String("dir", "", "load tables from this directory instead of generating TPC-H")
	qnum := flag.Int("q", 0, "use TPC-H query 1, 3 or 10 instead of a SQL argument")
	analyze := flag.Bool("analyze", false, "execute the query and report per-stage rows and timings (EXPLAIN ANALYZE)")
	flag.Parse()

	query := strings.Join(flag.Args(), " ")
	if *qnum != 0 {
		var err error
		query, err = tpch.Query(*qnum)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if query == "" {
		fmt.Fprintln(os.Stderr, "usage: hique-explain [-sf F | -dir D] [-q N] \"SELECT ...\"")
		os.Exit(2)
	}

	var cat *catalog.Catalog
	if *dir != "" {
		mgr, err := storage.NewManager(*dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		names, err := mgr.List()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cat = catalog.New()
		for _, n := range names {
			t, err := mgr.Load(n)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			cat.Register(t)
		}
	} else {
		cat = tpch.Generate(tpch.Config{ScaleFactor: *sf, Seed: 42})
	}

	if *analyze {
		// An "EXPLAIN ANALYZE SELECT ..." argument is accepted too — the
		// keywords are implied by -analyze.
		if rest, ok := hique.StripExplainAnalyze(query); ok {
			query = rest
		}
		db := hique.Open(hique.WithCatalog(cat))
		a, err := db.ExplainAnalyze(query)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("--- EXPLAIN ANALYZE ---")
		fmt.Print(a.String())
		return
	}

	stmt, err := sql.Parse(query)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	p, err := plan.Build(stmt, cat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Println("--- Optimizer plan (operator descriptor list) ---")
	fmt.Println(p.Explain())
	fmt.Println("--- Generated query-specific source ---")
	fmt.Println(codegen.EmitSource(p))

	cq, err := codegen.Generate(p, codegen.OptO2)
	if err == nil {
		err = cq.EnsureSource()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("--- Preparation cost ---\ngenerate: %s  compile: %s  source: %d bytes\n",
		cq.Prep.Generate, cq.Prep.Compile, cq.Prep.SourceBytes)
}
