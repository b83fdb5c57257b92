// Command hique is an interactive SQL shell over the holistic engine.
//
// Usage:
//
//	hique                       # empty database
//	hique -dir ./data           # open tables written by hique-gen
//	hique -tpch 0.01            # in-memory TPC-H at the given scale
//
// Shell commands:
//
//	\tables              list tables
//	\engine NAME         switch engine (holistic, generic-iterators,
//	                     optimized-iterators, column-store, holistic-O0)
//	\explain SELECT ...  show the optimizer plan
//	\source  SELECT ...  show the generated source
//	\q                   quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"hique/internal/catalog"
	"hique/internal/codegen"
	"hique/internal/dsm"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/tpch"
	"hique/internal/types"
	"hique/internal/volcano"
)

type executor interface {
	Name() string
	Execute(p *plan.Plan) (*storage.Table, error)
}

// codegenExec runs a plan as the holistic engine does: generated and
// compiled at its optimisation level (-O2: the fused pipelines).
type codegenExec struct{ level codegen.OptLevel }

func (c codegenExec) Name() string {
	if c.level == codegen.OptO2 {
		return "HIQUE"
	}
	return "holistic" + c.level.String()
}

func (c codegenExec) Execute(p *plan.Plan) (*storage.Table, error) {
	q, err := codegen.Generate(p, c.level)
	if err != nil {
		return nil, err
	}
	return q.Run()
}

func main() {
	dir := flag.String("dir", "", "open tables from this directory")
	tpchSF := flag.Float64("tpch", 0, "load an in-memory TPC-H catalogue at this scale factor")
	flag.Parse()

	cat := catalog.New()
	switch {
	case *dir != "":
		mgr, err := storage.NewManager(*dir)
		if err != nil {
			fatal(err)
		}
		names, err := mgr.List()
		if err != nil {
			fatal(err)
		}
		for _, n := range names {
			t, err := mgr.Load(n)
			if err != nil {
				fatal(err)
			}
			cat.Register(t)
			fmt.Printf("loaded %s (%d rows)\n", n, t.NumRows())
		}
	case *tpchSF > 0:
		cat = tpch.Generate(tpch.Config{ScaleFactor: *tpchSF, Seed: 42})
		fmt.Printf("generated TPC-H at SF %.3f\n", *tpchSF)
	}

	var exec executor = codegenExec{level: codegen.OptO2}
	fmt.Println("HIQUE shell — engine:", exec.Name(), "(\\q to quit)")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Print("hique> ")
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
		case line == `\q`:
			return
		case line == `\tables`:
			for _, n := range cat.Names() {
				e, _ := cat.Lookup(n)
				fmt.Printf("  %-12s %9d rows  %s\n", n, e.Table.NumRows(), e.Table.Schema())
			}
		case strings.HasPrefix(line, `\engine `):
			name := strings.TrimSpace(strings.TrimPrefix(line, `\engine `))
			switch name {
			case "holistic":
				exec = codegenExec{level: codegen.OptO2}
			case "generic-iterators":
				exec = volcano.NewGeneric()
			case "optimized-iterators":
				exec = volcano.NewOptimized()
			case "column-store":
				exec = dsm.NewEngine()
			case "holistic-O0":
				exec = codegenExec{level: codegen.OptO0}
			default:
				fmt.Println("unknown engine:", name)
			}
			fmt.Println("engine:", exec.Name())
		case strings.HasPrefix(line, `\explain `):
			if p, err := buildPlan(cat, strings.TrimPrefix(line, `\explain `)); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Print(p.Explain())
			}
		case strings.HasPrefix(line, `\source `):
			if p, err := buildPlan(cat, strings.TrimPrefix(line, `\source `)); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Print(codegen.EmitSource(p))
			}
		default:
			runQuery(cat, exec, line)
		}
		fmt.Print("hique> ")
	}
}

func buildPlan(cat *catalog.Catalog, query string) (*plan.Plan, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return plan.Build(stmt, cat)
}

func runQuery(cat *catalog.Catalog, exec executor, query string) {
	p, err := buildPlan(cat, query)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	out, err := exec.Execute(p)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	s := out.Schema()
	fmt.Println(strings.Join(p.OutputNames, " | "))
	shown := 0
	out.Scan(func(tuple []byte) bool {
		cells := make([]string, s.NumColumns())
		for i := range cells {
			cells[i] = s.GetDatum(tuple, i).String()
		}
		fmt.Println(strings.Join(cells, " | "))
		shown++
		return shown < 50
	})
	if out.NumRows() > shown {
		fmt.Printf("... (%d rows total)\n", out.NumRows())
	} else {
		fmt.Printf("(%d rows)\n", out.NumRows())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// silence unused-import lint for types (Datum String used via schema).
var _ = types.IntDatum
