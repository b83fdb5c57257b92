package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"hique/internal/catalog"
	"hique/internal/codegen"
	"hique/internal/morsel"
	"hique/internal/plan"
	"hique/internal/plancache"
	"hique/internal/sql"
	"hique/internal/types"
)

// replayer walks a read statement through each layer's public functions
// from outside, in the order hique.DB.QueryInto calls them, so that each
// layer's share of a statement can be timed without editing the layer.
// It mirrors DB's own wiring: default optimizer options, -O2, a
// GOMAXPROCS-wide morsel pool, a 256-entry plan cache.
type replayer struct {
	cat   *catalog.Catalog
	opts  plan.Options
	pool  *morsel.Pool
	cache *plancache.Cache
	shape sql.ShapeBuf
	key   []byte

	// warm holds one compiled query per statement shape, the state a DB
	// reaches after its first execution of that shape.
	warm map[string]*codegen.CompiledQuery
}

func newReplayer(cat *catalog.Catalog) *replayer {
	return &replayer{
		cat:   cat,
		opts:  plan.DefaultOptions(),
		pool:  morsel.NewPool(runtime.GOMAXPROCS(0)),
		cache: plancache.New(256),
		warm:  map[string]*codegen.CompiledQuery{},
	}
}

// cacheKey renders the plan-cache key of the shape currently in r.shape.
func (r *replayer) cacheKey() []byte {
	r.key = codegen.AppendCacheKey(r.key[:0], r.shape.Out, len(r.shape.Lits), r.opts, codegen.OptO2)
	return r.key
}

// bindParams assembles the bind vector the way hique.DB does: lifted
// literals and caller arguments merged in placeholder order, each
// coerced to the kind of the column its slot compares against.
func bindParams(dst []types.Datum, slots []plan.ParamSlot, lits []sql.LiftedLit, args []any) ([]types.Datum, error) {
	if len(lits) != len(slots) {
		return dst, fmt.Errorf("replay: shape has %d placeholders, plan has %d slots", len(lits), len(slots))
	}
	next := 0
	for i, slot := range slots {
		if lits[i].Kind != sql.LitNone {
			d, err := plan.LiteralDatum(lits[i].Expr(), slot.Kind)
			if err != nil {
				return dst, err
			}
			dst = append(dst, d)
			continue
		}
		if next >= len(args) {
			return dst, fmt.Errorf("replay: statement wants more than %d arguments", len(args))
		}
		d, err := coerceArg(args[next], slot.Kind)
		if err != nil {
			return dst, err
		}
		dst = append(dst, d)
		next++
	}
	return dst, nil
}

// coerceArg covers the argument types the benchmark's own generators
// produce: int64, float64, string (a YYYY-MM-DD string for a date slot).
func coerceArg(v any, kind types.Kind) (types.Datum, error) {
	switch x := v.(type) {
	case int64:
		switch kind {
		case types.Int, types.Date:
			return types.Datum{Kind: kind, I: x}, nil
		case types.Float:
			return types.FloatDatum(float64(x)), nil
		}
	case float64:
		if kind == types.Float {
			return types.FloatDatum(x), nil
		}
	case string:
		switch kind {
		case types.String:
			return types.StringDatum(x), nil
		case types.Date:
			days, err := sql.ParseDate(x)
			if err != nil {
				return types.Datum{}, err
			}
			return types.DateDatum(days), nil
		}
	}
	return types.Datum{}, fmt.Errorf("replay: cannot bind %T to a %v column", v, kind)
}

// runCompiled executes a compiled query and returns its frames to the
// arena.
func runCompiled(cq *codegen.CompiledQuery, params []types.Datum) error {
	out, err := cq.RunParams(params)
	if err != nil {
		return err
	}
	out.Release()
	return nil
}

// parse is the replayer's spelling of the parse step: sql.ParseStmt on a
// shape text, which must be a SELECT.
func (r *replayer) parse(shape string) (*sql.SelectStmt, error) {
	stmt, err := sql.ParseStmt(shape)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("replay: %q is not a SELECT", shape)
	}
	return sel, nil
}

// build runs parse → plan for a shape text and attaches the pool, as
// DB.planLocked does.
func (r *replayer) build(shape string) (*plan.Plan, error) {
	sel, err := r.parse(shape)
	if err != nil {
		return nil, err
	}
	p, err := plan.BuildWithOptions(sel, r.cat, r.opts)
	if err != nil {
		return nil, err
	}
	p.Pool = r.pool
	return p, nil
}

// prepare brings a statement to the state a DB is in after executing
// its shape once — compiled, cached under its key — and returns the
// compiled query with the statement's bind vector. Untimed.
func (r *replayer) prepare(stmt string, args []any) (*codegen.CompiledQuery, []types.Datum, error) {
	if err := r.shape.Shape(stmt); err != nil {
		return nil, nil, err
	}
	shape := string(r.shape.Out)
	cq := r.warm[shape]
	if cq == nil {
		p, err := r.build(shape)
		if err != nil {
			return nil, nil, err
		}
		if cq, err = codegen.Generate(p, codegen.OptO2); err != nil {
			return nil, nil, err
		}
		r.warm[shape] = cq
		r.cache.Put(string(r.cacheKey()), 0, cq)
	}
	params, err := bindParams(nil, cq.Plan.Params, r.shape.Lits, args)
	return cq, params, err
}

// warmTimes are the three steps of a plan-cache hit.
type warmTimes struct{ shape, get, run time.Duration }

// replayWarm records the spans of a plan-cache hit under parent: shape
// extraction, the cache lookup, and the compiled query's run.
func (r *replayer) replayWarm(tr *tracer, parent, req int, stmt string, args []any) (warmTimes, error) {
	var wt warmTimes
	cq, params, err := r.prepare(stmt, args)
	if err != nil {
		return wt, err
	}
	wt.shape = tr.call("sql.shape", parent, req, func() { err = r.shape.Shape(stmt) })
	if err != nil {
		return wt, err
	}
	wt.get = tr.call("plancache.get", parent, req, func() {
		v, _, _ := r.cache.GetStamped(r.cacheKey())
		cq, _ = v.(*codegen.CompiledQuery)
	})
	if cq == nil {
		return wt, fmt.Errorf("replay: warm shape missing from the cache: %s", r.shape.Out)
	}
	wt.run = tr.call("codegen.run", parent, req, func() { err = runCompiled(cq, params) })
	return wt, err
}

// coldStats is what one cold replay learned besides its spans.
type coldStats struct {
	emit, compile time.Duration
	sourceBytes   int
	fused         bool
}

// replayCold records the spans of a plan-cache miss under parent — the
// preparation pipeline of the paper's Table III: shape, the (missing)
// cache lookup, parse, plan, generate (with the emit/compile split the
// layer itself reports in CompiledQuery.Prep placed inside it), run.
func (r *replayer) replayCold(tr *tracer, parent, req int, stmt string, args []any) (coldStats, error) {
	var st coldStats
	var err error
	tr.call("sql.shape", parent, req, func() { err = r.shape.Shape(stmt) })
	if err != nil {
		return st, err
	}
	tr.call("plancache.get", parent, req, func() { r.cache.GetStamped(r.cacheKey()) })
	shape := string(r.shape.Out)

	var sel *sql.SelectStmt
	tr.call("sql.parse", parent, req, func() { sel, err = r.parse(shape) })
	if err != nil {
		return st, err
	}
	var p *plan.Plan
	tr.call("plan.build", parent, req, func() { p, err = plan.BuildWithOptions(sel, r.cat, r.opts) })
	if err != nil {
		return st, err
	}
	p.Pool = r.pool

	var cq *codegen.CompiledQuery
	gen := tr.begin("codegen.generate", parent, req)
	cq, err = codegen.Generate(p, codegen.OptO2)
	tr.end(gen)
	if err != nil {
		return st, err
	}
	st = coldStats{emit: cq.Prep.Generate, compile: cq.Prep.Compile, sourceBytes: cq.Prep.SourceBytes, fused: cq.Fused}
	g0 := tr.spans[gen].Start
	tr.add("codegen.emit_source", gen, req, g0, g0+int64(st.emit))
	tr.add("codegen.compile", gen, req, g0+int64(st.emit), g0+int64(st.emit+st.compile))

	params, err := bindParams(nil, p.Params, r.shape.Lits, args)
	if err != nil {
		return st, err
	}
	tr.call("codegen.run", parent, req, func() { err = runCompiled(cq, params) })
	return st, err
}

// allocsPerCall reports heap allocations per call of fn: the malloc
// counter's delta over runs calls, integer-divided. The garbage collector
// is off for the duration and three untimed calls come first, so that
// every sync.Pool the call draws from is full and stays full (TPC-H Q10
// needs three calls after a collection to stop allocating pool entries):
// with the collector emptying pools between calls the join queries' counts
// scatter by a few dozen, and the counts must repeat exactly. It must run
// while no other goroutine allocates.
func allocsPerCall(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 3; i++ {
		fn()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

// nsPerCall times batches of calls to a function too short to time
// singly (tens of nanoseconds) and returns the median batch's mean.
func nsPerCall(batches, perBatch int, fn func()) float64 {
	means := make([]float64, batches)
	for b := range means {
		start := time.Now()
		for i := 0; i < perBatch; i++ {
			fn()
		}
		means[b] = float64(time.Since(start)) / float64(perBatch)
	}
	return medianFloat(means)
}
