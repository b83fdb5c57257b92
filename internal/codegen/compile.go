package codegen

import (
	"fmt"
	"go/parser"
	"go/token"
	"sync"
	"time"

	"hique/internal/plan"
	"hique/internal/storage"
	"hique/internal/types"
)

// OptLevel names the optimisation level Generate builds at. OptO2 is
// its only value: the paper's -O0 / -O2 axis (Table II) is the Go
// compiler's, the same source built with and without
// -gcflags='hique/...=-N -l' (internal/bench.Tab2).
type OptLevel int

// OptO2 runs the fused, type-specialised pipelines.
const OptO2 OptLevel = 1

// String renders the flag spelling used in the paper.
func (l OptLevel) String() string { return "-O2" }

// Timings records the query-preparation cost breakdown reported in
// Table III. Generate fills Compile with the pipeline construction time;
// the source-side figures stay zero until EnsureSource runs.
type Timings struct {
	Generate time.Duration // emitting the source file
	Compile  time.Duration // building the executable plan (+ the syntax check once EnsureSource ran)
	// SourceBytes is the size of the generated source file.
	SourceBytes int
}

// CompiledQuery is a generated, compiled, and linked query: the output of
// the Figure 3 pipeline, ready for the executor to call. A query compiled
// from a parameterized plan is one artefact serving the whole query
// shape: Run binds a fresh parameter vector on every execution, so the
// preparation cost is paid once per shape, not once per constant.
type CompiledQuery struct {
	Plan *plan.Plan
	// Source is the generated source file; empty until EnsureSource runs.
	Source string
	Prep   Timings
	// Fused reports whether the query runs a fused pipeline (single
	// pipeline, no staged intermediates): always — the execution-path
	// axis of the serving metrics.
	Fused bool
	// Path names that strategy — always "fused" — and Workers is
	// the worker target of its widest phase, every join of a chain
	// included (1: every loop runs on the caller).
	Path    string
	Workers int

	run func(params []types.Datum) (*storage.Table, error)

	srcOnce sync.Once
	srcErr  error
}

// Generate instantiates the code templates for the plan (Figure 3) into
// the executable pipeline and returns the query. At -O2 every plan the
// planner emits compiles to a fused pipeline — a single-table plan to one
// probe/scan → filter → project (or aggregate) loop, a left-deep chain of
// joins, join teams included, to one fused join loop per join, each
// staging into the next — which reads parameters from the bind vector
// without an execution copy of the plan; a plan outside those shapes is
// an error. The source rendering of the same instantiation never
// executes, so it is not produced here; EnsureSource emits and
// syntax-checks it on first request.
func Generate(p *plan.Plan, level OptLevel) (*CompiledQuery, error) {
	if level != OptO2 {
		return nil, fmt.Errorf("codegen: unknown optimisation level %d", level)
	}
	q := &CompiledQuery{Plan: p, Fused: true, Path: "fused"}
	start := time.Now()
	if len(p.Joins) == 0 {
		f, err := newFused(p)
		if err != nil {
			return nil, err
		}
		q.run, q.Workers = f.run, f.par
	} else {
		f, err := newFusedJoin(p)
		if err != nil {
			return nil, err
		}
		q.run, q.Workers = f.run, f.workers()
	}
	q.Prep.Compile = time.Since(start)
	return q, nil
}

// Executor is the generated code as a plan executor: each Execute
// generates the plan and runs it once. It is how the differential tests
// and the experiments run HIQUE beside the other engines.
type Executor struct{}

// Name is the paper's name for the engine.
func (Executor) Name() string { return "HIQUE" }

// Execute generates the plan and runs it.
func (Executor) Execute(p *plan.Plan) (*storage.Table, error) {
	q, err := Generate(p, OptO2)
	if err != nil {
		return nil, err
	}
	return q.Run()
}

// unfusable reports a plan shape no fused pipeline runs.
func unfusable(format string, args ...any) error {
	return fmt.Errorf("codegen: no fused pipeline for "+format, args...)
}

// EnsureSource emits the query-specific source file and "compiles" it
// (syntax check via go/parser — the stand-in for the external compiler;
// see DESIGN.md), once per query: it fills Source, Prep.Generate and
// Prep.SourceBytes, adds the check to Prep.Compile, and returns the
// parse error, if any. Table III and the inspection tools call it; the
// serving path never does.
func (q *CompiledQuery) EnsureSource() error {
	q.srcOnce.Do(func() {
		start := time.Now()
		q.Source = EmitSource(q.Plan)
		q.Prep.Generate = time.Since(start)
		q.Prep.SourceBytes = len(q.Source)

		start = time.Now()
		if _, err := parser.ParseFile(token.NewFileSet(), "query.go", q.Source, parser.SkipObjectResolution); err != nil {
			q.srcErr = fmt.Errorf("codegen: generated source does not parse: %w", err)
		}
		q.Prep.Compile += time.Since(start)
	})
	return q.srcErr
}

// Run executes the compiled query against a bind vector and returns its
// result table. Literal-specialized queries take no parameters;
// parameterized queries require exactly one datum per slot, already
// coerced to the slot kinds (plan.Plan.Params).
func (q *CompiledQuery) Run(params ...types.Datum) (*storage.Table, error) {
	return q.run(params)
}

// RunParams is Run with the bind vector passed as a slice — the
// serving path's spelling, which lets a pooled parameter scratch flow
// through without the variadic copy.
func (q *CompiledQuery) RunParams(params []types.Datum) (*storage.Table, error) {
	return q.run(params)
}
