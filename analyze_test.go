package hique

// Differential tests for EXPLAIN ANALYZE: every engine must report the
// same stage-name set, and the cross-engine invariant columns — join
// RowsOut and terminal-stage RowsOut — must agree with each other and
// with the actual result cardinality. RowsIn and Elapsed are advisory
// (engines differ in where they apply filters), so they are only checked
// for sanity, never for equality. A join stage's RowsOut counts what the
// engine staged after any join-key filter, so the invariant is RowsOut +
// KeysDropped: the fused pipeline's key filter drops from its staging what
// the other engines stage and never join.
//
// The query list deliberately avoids LIMIT (the fused pipeline stops
// early while general engines truncate after the fact, so intermediate
// counts legitimately differ) and group-less aggregates over empty
// inputs (the identity row is appended after the engines run).

import (
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"hique/internal/enginetest"
)

var analyzeQueries = []struct {
	name string
	sql  string
	args []any
}{
	{name: "scan", sql: "SELECT id, price FROM fact WHERE id < 50 ORDER BY id"},
	{name: "agg", sql: "SELECT grp, COUNT(*) AS n, SUM(price) AS s FROM fact GROUP BY grp ORDER BY grp"},
	{name: "join", sql: "SELECT f.id, d.label FROM fact f, dim d WHERE f.grp = d.id ORDER BY f.id"},
	{name: "join-agg", sql: "SELECT d.label, COUNT(*) AS n FROM fact f, dim d WHERE f.grp = d.id GROUP BY d.label ORDER BY d.label"},
	{name: "join-param", sql: "SELECT f.id, d.label FROM fact f, dim d WHERE f.grp = d.id AND f.price > ? ORDER BY f.id", args: []any{500.0}},
	// Each side's predicates leave key sets that partly miss each other's,
	// over more keys than a fine partition join takes: the join-key filter
	// drops tuples (asserted in the test).
	{name: "join-keys-dropped", sql: "SELECT a.id, b.price FROM fact a, fact b WHERE a.id = b.id AND a.price > 600.0 AND b.grp < 12 ORDER BY a.id"},
}

func stageNames(stages []StageStats) []string {
	names := make([]string, len(stages))
	for i, s := range stages {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

func stageByName(stages []StageStats, name string) (StageStats, bool) {
	for _, s := range stages {
		if s.Name == name {
			return s, true
		}
	}
	return StageStats{}, false
}

// terminalStage picks the stage whose RowsOut must equal the result
// cardinality: sort if present, else aggregate, else project.
func terminalStage(stages []StageStats) (StageStats, bool) {
	for _, name := range []string{"sort", "aggregate", "project"} {
		if s, ok := stageByName(stages, name); ok {
			return s, true
		}
	}
	return StageStats{}, false
}

func TestExplainAnalyzeDifferential(t *testing.T) {
	for _, q := range analyzeQueries {
		t.Run(q.name, func(t *testing.T) {
			type run struct {
				engine string
				a      *AnalyzeResult
			}
			var runs []run
			for _, e := range enginetest.DBEngines() {
				db := joinTestDB(t, WithEngine(e.Engine))
				a, err := db.ExplainAnalyze(q.sql, q.args...)
				if err != nil {
					t.Fatalf("%s: %v", e, err)
				}
				runs = append(runs, run{engine: e.Name, a: a})
			}
			base := runs[0]
			if base.a.Rows == 0 {
				t.Fatalf("degenerate test query: 0 rows")
			}
			if q.name == "join-keys-dropped" {
				order, _ := stageByName(base.a.Stages, "join[0].order")
				if order.KeysDropped == 0 || !strings.Contains(base.a.String(), " keys_dropped=") {
					t.Errorf("%s dropped no keys:\n%s", base.engine, base.a)
				}
			}
			baseNames := stageNames(base.a.Stages)
			baseTerm, ok := terminalStage(base.a.Stages)
			if !ok {
				t.Fatalf("%s: no terminal stage in %v", base.engine, baseNames)
			}
			if baseTerm.RowsOut != int64(base.a.Rows) {
				t.Errorf("%s: terminal stage %s RowsOut %d != result rows %d",
					base.engine, baseTerm.Name, baseTerm.RowsOut, base.a.Rows)
			}
			for _, r := range runs[1:] {
				if r.a.Rows != base.a.Rows {
					t.Errorf("%s: %d rows, %s: %d rows", base.engine, base.a.Rows, r.engine, r.a.Rows)
				}
				if names := stageNames(r.a.Stages); !reflect.DeepEqual(names, baseNames) {
					t.Errorf("stage sets differ: %s=%v %s=%v", base.engine, baseNames, r.engine, names)
					continue
				}
				term, _ := terminalStage(r.a.Stages)
				if term.RowsOut != baseTerm.RowsOut {
					t.Errorf("terminal RowsOut differ: %s=%d %s=%d",
						base.engine, baseTerm.RowsOut, r.engine, term.RowsOut)
				}
				// Every join stage's output cardinality, with what a
				// join-key filter kept out of it, is an invariant of the
				// query, not of the engine.
				for _, s := range base.a.Stages {
					if len(s.Name) < 4 || s.Name[:4] != "join" {
						continue
					}
					rs, ok := stageByName(r.a.Stages, s.Name)
					if !ok {
						t.Errorf("%s missing stage %s", r.engine, s.Name)
						continue
					}
					if rs.RowsOut+rs.KeysDropped != s.RowsOut+s.KeysDropped {
						t.Errorf("stage %s RowsOut + KeysDropped differ: %s=%d+%d %s=%d+%d",
							s.Name, base.engine, s.RowsOut, s.KeysDropped, r.engine, rs.RowsOut, rs.KeysDropped)
					}
				}
				for _, s := range r.a.Stages {
					if s.RowsOut < 0 || s.RowsIn < 0 || s.ElapsedUs < 0 {
						t.Errorf("%s stage %s has negative fields: %+v", r.engine, s.Name, s)
					}
				}
			}
		})
	}
}

// TestExplainAnalyzeMatchesQuery asserts EXPLAIN ANALYZE returns the same
// cardinality as the plain query path, and that running it does not
// poison the plan cache for subsequent untraced queries.
func TestExplainAnalyzeMatchesQuery(t *testing.T) {
	db := joinTestDB(t, WithPlanCache(16))
	const q = "SELECT d.label, COUNT(*) AS n FROM fact f, dim d WHERE f.grp = d.id GROUP BY d.label ORDER BY d.label"

	a, err := db.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows != len(res.Rows) {
		t.Fatalf("analyze rows %d != query rows %d", a.Rows, len(res.Rows))
	}
	// Warm the cache and re-query: the cached plan must not carry a trace.
	for i := 0; i < 3; i++ {
		res2, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res2.Rows, res.Rows) {
			t.Fatal("cached query result drifted after EXPLAIN ANALYZE")
		}
	}
	if a.Plan == "" {
		t.Error("missing plan text")
	}
	if a.String() == "" {
		t.Error("empty renderer output")
	}
}

func TestStripExplainAnalyze(t *testing.T) {
	cases := []struct {
		in   string
		rest string
		ok   bool
	}{
		{"EXPLAIN ANALYZE SELECT 1 FROM fact", "SELECT 1 FROM fact", true},
		{"explain analyze\n SELECT id FROM fact", "SELECT id FROM fact", true},
		{"  Explain   Analyze SELECT id FROM fact", "SELECT id FROM fact", true},
		{"SELECT id FROM fact", "", false},
		{"EXPLAIN SELECT id FROM fact", "", false},
		{"EXPLAINANALYZE SELECT 1", "", false},
	}
	for _, c := range cases {
		rest, ok := StripExplainAnalyze(c.in)
		if ok != c.ok {
			t.Errorf("%q: ok = %v, want %v", c.in, ok, c.ok)
			continue
		}
		if ok && rest != c.rest {
			t.Errorf("%q: rest = %q, want %q", c.in, rest, c.rest)
		}
	}
}

// TestJoinKeysDroppedCounted: the tuples the fused join's key filter keeps
// out of a staging scan are reported on that stage and, summed, on the
// join's order stage, and counted once per stage on
// hique_join_keys_dropped_total by the traced run and the plain query alike
// (the filter runs in the serving pipeline, not only the traced one).
func TestJoinKeysDroppedCounted(t *testing.T) {
	db := joinTestDB(t)
	const q = "SELECT a.id, b.price FROM fact a, fact b WHERE a.id = b.id AND a.price > 600.0 AND b.grp < 12 ORDER BY a.id"
	counter := func() int64 {
		var b strings.Builder
		if err := db.Metrics().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "hique_join_keys_dropped_total "); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		t.Fatal("hique_join_keys_dropped_total is not exposed")
		return 0
	}
	before := counter()
	a, err := db.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	var sides int64
	for _, s := range a.Stages {
		if strings.Contains(s.Name, ".stage[") {
			sides += s.KeysDropped
		}
	}
	order, _ := stageByName(a.Stages, "join[0].order")
	if sides == 0 || order.KeysDropped != sides {
		t.Fatalf("stages dropped %d keys, join[0].order reports %d:\n%s", sides, order.KeysDropped, a)
	}
	traced := counter()
	if traced-before < sides {
		t.Errorf("hique_join_keys_dropped_total moved %d over a traced run that dropped %d", traced-before, sides)
	}
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if n := counter() - traced; n < sides {
		t.Errorf("hique_join_keys_dropped_total moved %d over a query that drops %d", n, sides)
	}
}

// TestExplainAnalyzeReportsWhatTheScanRead: a stage that scans a base
// table reports as rows in the tuples it examined — those on the pages it
// read, or those an index probe fetched — not the table's size, and the
// pages it read and skipped on their bounds. fact's ids ascend with the
// heap, so a key predicate reads one page; every skip is counted on
// hique_scan_pages_skipped_total.
func TestExplainAnalyzeReportsWhatTheScanRead(t *testing.T) {
	db := joinTestDB(t)
	e, err := db.cat.Lookup("fact")
	if err != nil {
		t.Fatal(err)
	}
	pages := int64(e.Table.NumPages())
	perPage := int64(e.Table.Page(0).NumTuples())
	lastPage := int64(e.Table.Page(int(pages - 1)).NumTuples())
	scrape := func() string {
		var b strings.Builder
		if err := db.Metrics().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, "hique_scan_pages_skipped_total ") {
				return line
			}
		}
		t.Fatal("hique_scan_pages_skipped_total is not exposed")
		return ""
	}
	before := scrape()
	for _, c := range []struct {
		sql           string
		stage         string
		rowsIn        int64
		read, skipped int64
	}{
		{"SELECT id, price FROM fact WHERE id = 300", "project", perPage, 1, pages - 1},
		{"SELECT id, price FROM fact WHERE price > 1.0", "project", 1500, pages, 0},
		{"SELECT COUNT(*) AS n FROM fact WHERE id >= 1490", "aggregate", lastPage, 1, pages - 1},
		{"SELECT f.id, d.label FROM fact f, dim d WHERE f.grp = d.id AND f.id < 10 ORDER BY f.id", "join[0].stage[0]", perPage, 1, pages - 1},
	} {
		a, err := db.ExplainAnalyze(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		s, ok := stageByName(a.Stages, c.stage)
		if !ok {
			t.Fatalf("%s: no stage %s in %+v", c.sql, c.stage, a.Stages)
		}
		if s.RowsIn != c.rowsIn || s.PagesRead != c.read || s.PagesSkipped != c.skipped {
			t.Errorf("%s: %s read %d rows on %d pages and skipped %d; want %d rows, %d pages, %d skipped",
				c.sql, c.stage, s.RowsIn, s.PagesRead, s.PagesSkipped, c.rowsIn, c.read, c.skipped)
		}
	}
	if after := scrape(); after == before {
		t.Errorf("hique_scan_pages_skipped_total did not move: %s", after)
	}

	// An index probe examines the tuples it fetches and reads no page.
	if err := db.BuildIndex("fact", "grp"); err != nil {
		t.Fatal(err)
	}
	a, err := db.ExplainAnalyze("SELECT id FROM fact WHERE grp = 5")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := stageByName(a.Stages, "project")
	if s.RowsIn != int64(a.Rows) || s.PagesRead != 0 || s.PagesSkipped != 0 {
		t.Errorf("index probe: %+v, want %d rows in and no pages", s, a.Rows)
	}
}
