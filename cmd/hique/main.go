// Command hique is an interactive SQL shell over a hique.DB — the same
// database, locks and write path the HTTP server wraps.
//
// Usage:
//
//	hique                       # empty database
//	hique -dir ./data           # open tables written by hique-gen
//	hique -tpch 0.01            # in-memory TPC-H at the given scale
//
// A line is a SELECT, an INSERT/UPDATE/DELETE, or EXPLAIN ANALYZE
// followed by a SELECT. Shell commands:
//
//	\tables              list tables
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

	"hique"
	"hique/internal/catalog"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/tpch"
)

// maxShown caps the rows a query prints; the total is reported.
const maxShown = 50

func main() {
	dir := flag.String("dir", "", "open tables from this directory")
	tpchSF := flag.Float64("tpch", 0, "load an in-memory TPC-H catalogue at this scale factor")
	flag.Parse()

	var opts []hique.Option
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
		cat := catalog.New()
		for _, n := range names {
			t, err := mgr.Load(n)
			if err != nil {
				fatal(err)
			}
			cat.Register(t)
			fmt.Printf("loaded %s (%d rows)\n", n, t.NumRows())
		}
		opts = append(opts, hique.WithCatalog(cat))
	case *tpchSF > 0:
		opts = append(opts, hique.WithCatalog(tpch.Generate(tpch.Config{ScaleFactor: *tpchSF, Seed: 42})))
		fmt.Printf("generated TPC-H at SF %.3f\n", *tpchSF)
	}
	db := hique.Open(opts...)

	fmt.Println("HIQUE shell — engine:", db.EngineName(), "(\\q to quit)")
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
			for _, n := range db.Tables() {
				rows, cols, err := db.TableInfo(n)
				if err != nil {
					fmt.Println("error:", err)
					continue
				}
				fmt.Printf("  %-12s %9d rows  %s\n", n, rows, strings.Join(cols, ", "))
			}
		case strings.HasPrefix(line, `\explain `):
			show(db.Explain(strings.TrimPrefix(line, `\explain `)))
		case strings.HasPrefix(line, `\source `):
			show(db.GeneratedSource(strings.TrimPrefix(line, `\source `)))
		default:
			run(db, line)
		}
		fmt.Print("hique> ")
	}
}

// show prints a rendered plan or source, or the error producing it.
func show(text string, err error) {
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(text)
}

// run executes one statement and prints its outcome.
func run(db *hique.DB, stmt string) {
	if rest, ok := hique.StripExplainAnalyze(stmt); ok {
		a, err := db.ExplainAnalyze(rest)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Print(a.String())
		return
	}
	if sql.IsDML(stmt) {
		res, err := db.Exec(stmt)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("(%d rows affected)\n", res.RowsAffected)
		return
	}
	res, err := db.Query(stmt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(strings.Join(res.Columns, " | "))
	for _, row := range res.Rows[:min(len(res.Rows), maxShown)] {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = fmt.Sprint(v)
		}
		fmt.Println(strings.Join(cells, " | "))
	}
	if len(res.Rows) > maxShown {
		fmt.Printf("... (%d rows total)\n", len(res.Rows))
	} else {
		fmt.Printf("(%d rows)\n", len(res.Rows))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
