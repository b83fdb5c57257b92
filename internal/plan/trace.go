package plan

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Trace collects per-stage execution statistics for EXPLAIN ANALYZE. A
// trace is attached to a per-execution plan copy (never to a cached,
// shared plan) via Plan.Trace; engines record into it when — and only
// when — it is non-nil, so an untraced execution pays nothing beyond the
// nil check.
//
// Stage names are canonical, derived from the plan shape rather than the
// execution strategy, so the five engines produce comparable traces:
//
//	join[J].stage[K]  staging of input K of join J (rows out = staged
//	                  tuples after filters and partition routing)
//	join[J].order     bucketing and sorting join J's staged inputs for
//	                  its loop (rows in = rows out = staged tuples); a
//	                  hybrid join sorts each partition pair inside its
//	                  loop, a hash join orders nothing (zero elapsed)
//	join[J]           the join loop (rows out = joined tuples)
//	aggregate         the aggregation operator (rows out = groups)
//	project           the final projection (rows out = result tuples)
//	sort              the final ordering (row-count preserving)
//
// RowsOut of the join and terminal stages is engine-independent (it is
// the operator's output cardinality); RowsIn and Elapsed are advisory —
// engines decompose work differently, so inputs and timings describe
// that engine's execution, not a cross-engine invariant.
type Trace struct {
	Stages []StageTrace

	// Parallel records the morsel-driven phases of this execution, one
	// entry per parallel phase (empty for serial executions). Stage
	// names match the Stages entry the phase ran under.
	Parallel []ParallelTrace
}

// StageTrace is one recorded pipeline stage. A stage that scans a base
// table also records the pages it read and the pages their bounds let it
// skip; RowsIn is then the tuples on the pages read (or the tuples an
// index probe fetched), not the table's size. KeysDropped counts the
// tuples a join-key filter dropped from a join input's staging (on
// join[J].order, the sum over its inputs): tuples that passed the stage's
// own predicates but whose key no tuple of the join's first-staged input
// holds, so they cannot join. RowsOut + KeysDropped is what the stage
// would stage unfiltered.
type StageTrace struct {
	Name         string
	RowsIn       int64
	RowsOut      int64
	Elapsed      time.Duration
	PagesRead    int64
	PagesSkipped int64
	KeysDropped  int64
}

// ParallelTrace describes one morsel-driven parallel phase: how many
// workers cooperated (helpers actually admitted, plus the caller) and
// the rows each processed morsel produced, in morsel order. Under LIMIT
// cancellation the unclaimed tail is absent.
type ParallelTrace struct {
	Stage      string
	Workers    int
	MorselRows []int64
}

// Observe merges one stage observation into the trace: repeated
// observations under the same name (a partition-wise join loop, say)
// accumulate. Safe to call on a nil trace.
func (t *Trace) Observe(name string, rowsIn, rowsOut int64, elapsed time.Duration) {
	if t == nil {
		return
	}
	s := t.stage(name)
	s.RowsIn += rowsIn
	s.RowsOut += rowsOut
	s.Elapsed += elapsed
}

// ObservePages merges the pages a stage's scan read and skipped into the
// trace, accumulating like Observe. Safe to call on a nil trace.
func (t *Trace) ObservePages(name string, read, skipped int64) {
	if t == nil {
		return
	}
	s := t.stage(name)
	s.PagesRead += read
	s.PagesSkipped += skipped
}

// ObserveDropped merges the tuples a stage's join-key filter dropped into
// the trace, accumulating like Observe. Safe to call on a nil trace.
func (t *Trace) ObserveDropped(name string, tuples int64) {
	if t != nil {
		t.stage(name).KeysDropped += tuples
	}
}

// stage returns the named stage's record, appending an empty one on the
// name's first observation.
func (t *Trace) stage(name string) *StageTrace {
	for i := range t.Stages {
		if t.Stages[i].Name == name {
			return &t.Stages[i]
		}
	}
	t.Stages = append(t.Stages, StageTrace{Name: name})
	return &t.Stages[len(t.Stages)-1]
}

// ObserveParallel records one morsel-driven parallel phase. Safe to
// call on a nil trace.
func (t *Trace) ObserveParallel(stage string, workers int, morselRows []int64) {
	if t == nil {
		return
	}
	t.Parallel = append(t.Parallel, ParallelTrace{Stage: stage, Workers: workers, MorselRows: morselRows})
}

// Reset clears the trace for reuse.
func (t *Trace) Reset() {
	t.Stages = t.Stages[:0]
	t.Parallel = t.Parallel[:0]
}

// String renders the trace one stage per line, parallel phases after.
func (t *Trace) String() string {
	var b strings.Builder
	for _, s := range t.Stages {
		fmt.Fprintf(&b, "%-18s rows_in=%-8d rows_out=%-8d elapsed=%s",
			s.Name, s.RowsIn, s.RowsOut, s.Elapsed)
		if s.PagesRead+s.PagesSkipped > 0 {
			fmt.Fprintf(&b, " pages_read=%d pages_skipped=%d", s.PagesRead, s.PagesSkipped)
		}
		if s.KeysDropped > 0 {
			fmt.Fprintf(&b, " keys_dropped=%d", s.KeysDropped)
		}
		b.WriteByte('\n')
	}
	for _, p := range t.Parallel {
		fmt.Fprintf(&b, "%-18s workers=%d morsels=%d rows=%v\n",
			"parallel:"+p.Stage, p.Workers, len(p.MorselRows), p.MorselRows)
	}
	return b.String()
}

var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// GetTrace draws an empty trace from the pool.
func GetTrace() *Trace {
	t := tracePool.Get().(*Trace)
	t.Reset()
	return t
}

// PutTrace returns a trace to the pool; the caller must not retain it.
func PutTrace(t *Trace) { tracePool.Put(t) }

// Canonical terminal-stage names (see Trace).
const (
	TraceStageAgg     = "aggregate"
	TraceStageProject = "project"
	TraceStageSort    = "sort"
)

// TraceJoinStage names the staging of input k of join j. Only called on
// traced executions, so the formatting allocation never touches the
// serving hot path.
func TraceJoinStage(j, k int) string { return fmt.Sprintf("join[%d].stage[%d]", j, k) }

// TraceJoinOrder names the ordering of join j's staged inputs.
func TraceJoinOrder(j int) string { return fmt.Sprintf("join[%d].order", j) }

// TraceJoin names join j's join loop.
func TraceJoin(j int) string { return fmt.Sprintf("join[%d]", j) }
