package enginetest

import (
	"fmt"
	"math/rand"
	"testing"

	"hique"
	"hique/internal/core"
	"hique/internal/morsel"
	"hique/internal/plan"
	"hique/internal/storage"
	"hique/internal/types"
)

// sortedTable builds so, whose Int key sk (even numbers) and Date sd
// ascend with the heap, so page bounds really exclude pages:
//
//	so(sk INT, sd DATE, sg INT, sv INT, sf FLOAT, tag CHAR(4))
//
// sg is the row's page number at load time (constant per page: the case
// a <> predicate can prune), sv a random join key into dm, sf eighths
// (exact sums in any order).
func sortedTable(rng *rand.Rand, n, nDm int) *storage.Table {
	s := types.NewSchema(
		types.Col("sk", types.Int), types.Col("sd", types.Date),
		types.Col("sg", types.Int), types.Col("sv", types.Int),
		types.Col("sf", types.Float), types.CharCol("tag", 4))
	perPage := (storage.PageSize - storage.HeaderSize) / s.TupleSize()
	t := storage.NewTable("so", s)
	tags := []string{"aa", "bb", "cc"}
	for i := 0; i < n; i++ {
		t.AppendRow(
			types.IntDatum(int64(2*i)),
			types.DateDatum(int64(10000+i/3)),
			types.IntDatum(int64(i/perPage)),
			types.IntDatum(int64(rng.Intn(nDm))),
			types.FloatDatum(float64(i%997)/8),
			types.StringDatum(tags[rng.Intn(len(tags))]))
	}
	return t
}

// prunedStatements renders the pruning corpus against so's current page
// bounds: equality at a page's min and max and just outside them, the
// four range operators at page boundaries on the Int and the Date key, <>
// on a page-constant column, LIMIT behind a pruned prefix, and pruned
// scans feeding an aggregation and a join.
func prunedStatements(t *storage.Table) []string {
	last := t.NumPages() - 1
	var out []string
	for _, pi := range []int{0, last / 2, last} {
		b := t.PageBounds(pi)
		for slot, col := range []string{"sk", "sd"} {
			lo, hi := b[2*slot], b[2*slot+1]
			for _, v := range []int64{lo - 1, lo, hi, hi + 1} {
				out = append(out, fmt.Sprintf("SELECT sk, sd, sf FROM so WHERE %s = %d", col, v))
			}
			for _, op := range []string{"<", "<=", ">", ">="} {
				for _, v := range []int64{lo, hi} {
					out = append(out, fmt.Sprintf("SELECT COUNT(*) AS n, SUM(sf) AS s, MIN(sk), MAX(sd) FROM so WHERE %s %s %d", col, op, v))
				}
			}
		}
		lo, hi := b[0], b[1]
		out = append(out,
			fmt.Sprintf("SELECT sk, tag FROM so WHERE sk >= %d AND sk <= %d AND tag <> 'bb'", lo, hi),
			fmt.Sprintf("SELECT sk FROM so WHERE sk > %d LIMIT 7", hi-4),
			fmt.Sprintf("SELECT tag, COUNT(*) AS n, SUM(sf) AS s FROM so WHERE sk BETWEEN %d AND %d GROUP BY tag ORDER BY tag", lo-6, hi+6),
			fmt.Sprintf("SELECT sk, bucket FROM so, dm WHERE so.sv = dm.k2 AND sk >= %d AND sk < %d ORDER BY sk, bucket", lo, hi+50),
			fmt.Sprintf("SELECT sg, COUNT(*) AS n FROM so WHERE sg <> %d AND sd <= %d GROUP BY sg ORDER BY sg", pi, b[3]),
		)
	}
	return out
}

// TestPrunedScansAgree runs the pruning corpus on a table whose keys are
// sorted by page, as loaded, after a compacting DELETE and after an UPDATE
// of the key column, each through the DB's write path. Serial, every
// engine must agree — the iterator and column-store engines, which never
// prune, included — with the -O2 pipeline both as Prepare with literals
// compiles it and as DB.Query shapes it ('?' bounds). With parallel
// pipelines forced on, workers {2, 3, 8} must emit exactly the serial
// rows, under every join algorithm. The statements must really skip
// pages.
func TestPrunedScansAgree(t *testing.T) {
	lowThreshold(t)
	rng := rand.New(rand.NewSource(31))
	cat := fixture(31, 500, 150, 100)
	so := sortedTable(rng, morsel.Rows+900, 150) // two scan morsels
	cat.Register(so)
	check := func(stage string) {
		t.Helper()
		before := core.SkippedPages()
		stmts := prunedStatements(so)
		opts := plan.DefaultOptions()
		opts.Parallelism = 1
		runQueries(t, cat, opts, stmts, engines(), 0)
		rowOrderMatchesSerial(t, cat, stmts)
		if core.SkippedPages() == before {
			t.Fatalf("%s: no statement skipped a page", stage)
		}
	}
	check("as loaded")

	db := hique.Open(hique.WithCatalog(cat))
	exec := func(q string) {
		t.Helper()
		if res, err := db.Exec(q); err != nil || res.RowsAffected == 0 {
			t.Fatalf("%s: %d rows, %v", q, res.RowsAffected, err)
		}
		if err := cat.CheckStats(); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mid := so.PageBounds(so.NumPages() / 3)
	exec(fmt.Sprintf("DELETE FROM so WHERE sk >= %d AND sk < %d", mid[0]+10, mid[1]+400))
	check("after a compacting DELETE")
	mid = so.PageBounds(so.NumPages() / 2)
	exec(fmt.Sprintf("UPDATE so SET sk = %d, sd = 9000 WHERE sk >= %d AND sk <= %d", 7, mid[0]+2, mid[0]+20))
	check("after an UPDATE of the key column")
}
