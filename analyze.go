package hique

import (
	"fmt"
	"strings"
	"time"

	"hique/internal/plan"
)

// StageStats is one recorded pipeline stage of an EXPLAIN ANALYZE run.
// Names are canonical across engines (join[J].stage[K], join[J],
// aggregate, project, sort); RowsOut of the join and terminal stages is
// the operator's output cardinality on every engine, while RowsIn and
// Elapsed describe how this engine decomposed the work. A stage that
// scans a base table reports as RowsIn the tuples it examined — those on
// the pages it read, or those an index probe fetched — and the pages it
// read and skipped on their bounds. KeysDropped is what a join-key filter
// kept out of a join input's staging (on join[J].order, summed over its
// inputs): RowsOut + KeysDropped is the unfiltered staging's RowsOut, the
// count the engines that filter no keys report.
type StageStats struct {
	Name         string `json:"name"`
	RowsIn       int64  `json:"rows_in"`
	RowsOut      int64  `json:"rows_out"`
	ElapsedUs    int64  `json:"elapsed_us"`
	PagesRead    int64  `json:"pages_read,omitempty"`
	PagesSkipped int64  `json:"pages_skipped,omitempty"`
	KeysDropped  int64  `json:"keys_dropped,omitempty"`
}

// ParallelStats is one morsel-driven parallel phase of an EXPLAIN
// ANALYZE run: the stage it ran under, the workers that cooperated
// (helpers actually admitted, plus the caller), and the rows each
// processed morsel produced, in morsel order. Under LIMIT cancellation
// the unclaimed tail is absent.
type ParallelStats struct {
	Stage      string  `json:"stage"`
	Workers    int     `json:"workers"`
	MorselRows []int64 `json:"morsel_rows"`
}

// AnalyzeResult is the outcome of DB.ExplainAnalyze: the optimizer's
// plan, the execution path and worker target the artefact compiled to,
// the per-stage execution statistics, and the totals of the actual run
// that produced them. Path is "fused" (a single-table pipeline or a
// chain of fused joins: every SELECT on the default engine) or
// "general" (an injected executor: the comparator engines);
// Workers is the compiled worker target of the widest phase of any join,
// Parallel the phases that actually ran on more than the caller (empty
// for serial executions).
type AnalyzeResult struct {
	Engine   string          `json:"engine"`
	Path     string          `json:"path"`
	Workers  int             `json:"workers"`
	Plan     string          `json:"plan"`
	Stages   []StageStats    `json:"stages"`
	Parallel []ParallelStats `json:"parallel,omitempty"`
	Rows     int             `json:"rows"`
	Elapsed  time.Duration   `json:"-"`
}

// String renders the plan followed by the stage table.
func (a *AnalyzeResult) String() string {
	var b strings.Builder
	b.WriteString(a.Plan)
	if !strings.HasSuffix(a.Plan, "\n") {
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "engine: %s  path: %s  workers: %d\n", a.Engine, a.Path, a.Workers)
	for _, s := range a.Stages {
		fmt.Fprintf(&b, "%-18s rows_in=%-10d rows_out=%-10d elapsed=%s",
			s.Name, s.RowsIn, s.RowsOut, time.Duration(s.ElapsedUs)*time.Microsecond)
		if s.PagesRead+s.PagesSkipped > 0 {
			fmt.Fprintf(&b, " pages_read=%d pages_skipped=%d", s.PagesRead, s.PagesSkipped)
		}
		if s.KeysDropped > 0 {
			fmt.Fprintf(&b, " keys_dropped=%d", s.KeysDropped)
		}
		b.WriteByte('\n')
	}
	for _, p := range a.Parallel {
		fmt.Fprintf(&b, "%-18s workers=%d morsels=%d rows=%v\n",
			"parallel:"+p.Stage, p.Workers, len(p.MorselRows), p.MorselRows)
	}
	fmt.Fprintf(&b, "result: %d rows in %s\n", a.Rows, a.Elapsed)
	return b.String()
}

// ExplainAnalyze plans, executes, and profiles a SELECT statement: the
// engines record per-stage row counts and timings into a pooled trace
// attached to this execution only. The statement actually runs (its
// result is drained to count rows) on the DB's engine — the default
// compiles a dedicated traced pipeline, so cached serving pipelines
// never carry trace branches and pay nothing when tracing is not
// requested. The text is shaped exactly as Query shapes
// it (literals lifted into bind slots when the plan cache is on), so the
// plan, path and worker target reported are the serving artefact's, not
// those of a literal-specialised sibling.
func (db *DB) ExplainAnalyze(query string, args ...any) (res *AnalyzeResult, err error) {
	defer db.met.noteQuery(&err)
	defer containPanic(&err)
	sc := queryScratchPool.Get().(*queryScratch)
	defer queryScratchPool.Put(sc)
	tr := plan.GetTrace()
	defer plan.PutTrace(tr)

	// prepare builds a fresh artefact against the traced plan, so fused
	// loops bake their trace hooks in (codegen.fusedQuery.traced).
	shaped := db.cache != nil
	if shaped {
		if err := sc.shape.Shape(query); err != nil {
			return nil, err
		}
		query = string(sc.shape.Out)
	}
	art, unlock, err := db.prepare(query, tr)
	if err != nil {
		return nil, err
	}
	planText := art.plan.Explain()
	var dst Result
	if _, err := db.lease(&dst, art, unlock, sc, shaped, args); err != nil {
		return nil, err
	}
	out := &AnalyzeResult{
		Engine:  db.EngineName(),
		Path:    "general",
		Workers: 1,
		Plan:    planText,
		Stages:  make([]StageStats, len(tr.Stages)),
		Rows:    len(dst.Rows),
		Elapsed: dst.Elapsed,
	}
	if art.cq != nil {
		out.Path, out.Workers = art.cq.Path, art.cq.Workers
	}
	for i, s := range tr.Stages {
		out.Stages[i] = StageStats{
			Name:         s.Name,
			RowsIn:       s.RowsIn,
			RowsOut:      s.RowsOut,
			ElapsedUs:    s.Elapsed.Microseconds(),
			PagesRead:    s.PagesRead,
			PagesSkipped: s.PagesSkipped,
			KeysDropped:  s.KeysDropped,
		}
	}
	for _, p := range tr.Parallel {
		// Copy the morsel rows out of the pooled trace before PutTrace.
		rows := make([]int64, len(p.MorselRows))
		copy(rows, p.MorselRows)
		out.Parallel = append(out.Parallel, ParallelStats{
			Stage: p.Stage, Workers: p.Workers, MorselRows: rows,
		})
	}
	return out, nil
}

// StripExplainAnalyze reports whether stmt starts with the EXPLAIN
// ANALYZE keywords (case-insensitive) and returns the statement that
// follows them — the SQL front ends use it to route the analyze form of
// a query.
func StripExplainAnalyze(stmt string) (string, bool) {
	rest, ok := stripKeyword(stmt, "explain")
	if !ok {
		return stmt, false
	}
	rest, ok = stripKeyword(rest, "analyze")
	if !ok {
		return stmt, false
	}
	return strings.TrimLeft(rest, " \t\r\n"), true
}

// stripKeyword removes one leading keyword (case-insensitive, must be
// followed by whitespace) after trimming leading space.
func stripKeyword(s, kw string) (string, bool) {
	s = strings.TrimLeft(s, " \t\r\n")
	if len(s) <= len(kw) || !strings.EqualFold(s[:len(kw)], kw) {
		return s, false
	}
	switch s[len(kw)] {
	case ' ', '\t', '\r', '\n':
		return s[len(kw)+1:], true
	}
	return s, false
}
