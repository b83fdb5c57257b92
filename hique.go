// Package hique is the public API of HIQUE, the Holistic Integrated Query
// Engine — a Go reproduction of "Generating code for holistic query
// evaluation" (Krikellas, Viglas, Cintra; ICDE 2010).
//
// HIQUE evaluates SQL by generating query-specific code: the optimizer
// emits a topologically sorted list of operator descriptors, and the code
// generator instantiates staging / join / aggregation templates into
// type- and offset-specialised executables (plus an inspectable source
// rendering of exactly what was instantiated). See DESIGN.md for the
// architecture and EXPERIMENTS.md for the reproduced evaluation.
//
// Quick start:
//
//	db := hique.Open()
//	db.CreateTable("t", hique.Int("id"), hique.Float("price"))
//	db.Insert("t", int64(1), 9.5)
//	res, err := db.Query("SELECT id, price FROM t WHERE price > 5.0")
//
// A DB is safe for concurrent use: queries on the same table run in
// parallel under per-table reader locks, while writers (Insert,
// CreateTable, BuildIndex) serialise against them. Opening with
// WithPlanCache enables the compiled-plan cache, which amortises the
// per-query preparation cost (parse → optimise → generate → compile;
// paper Table III) across repeated statements. cmd/hique-server exposes
// all of this over HTTP/JSON.
package hique

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"hique/internal/catalog"
	"hique/internal/codegen"
	"hique/internal/morsel"
	"hique/internal/obs"
	"hique/internal/plan"
	"hique/internal/plancache"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/types"
	"hique/internal/volcano"
)

// Column declares one attribute of a table.
type Column struct {
	Name string
	kind types.Kind
	size int
}

// Int declares a 64-bit integer column.
func Int(name string) Column { return Column{Name: name, kind: types.Int, size: 8} }

// Float declares a 64-bit float column.
func Float(name string) Column { return Column{Name: name, kind: types.Float, size: 8} }

// Date declares a date column (days since 1970-01-01).
func Date(name string) Column { return Column{Name: name, kind: types.Date, size: 8} }

// Char declares a fixed-width string column.
func Char(name string, width int) Column { return Column{Name: name, kind: types.String, size: width} }

// Engine executes a DB's bound plans. A DB opened without WithEngine
// keeps none: it runs every SELECT as compiled -O2 generated code, the
// paper's engine. Any other executor is a comparator fixed at Open.
type Engine = plan.Executor

// OptimizedIterators is the type-specialised Volcano baseline, the
// independent reference result checks compare the holistic engine with.
var OptimizedIterators Engine = volcano.NewOptimized()

// DB is an embedded HIQUE database: a catalogue of in-memory tables and a
// query engine. All methods are safe for concurrent use.
type DB struct {
	cat *catalog.Catalog

	// exec runs every SELECT's bound plan; nil runs each as compiled -O2
	// code. Fixed at Open.
	exec Engine

	// opts are the optimizer options, fixed at Open.
	opts plan.Options

	// ddlMu serialises CreateTable's existence check with registration.
	ddlMu sync.Mutex

	// cache holds prepared SELECT artefacts keyed by normalised SQL +
	// optimizer configuration; nil when disabled.
	cache *plancache.Cache

	// writeCache holds planned DML descriptors keyed by normalised
	// statement text. It is a separate LRU so a literal-heavy ingest
	// workload (every distinct multi-VALUES text is its own entry) can
	// never evict the expensive compiled read plans; nil when disabled.
	writeCache *plancache.Cache

	// met is the always-on serving telemetry (see metrics.go); set once
	// in Open, immutable afterwards.
	met *dbMetrics

	// pool bounds the helper goroutines this DB's parallel fused
	// pipelines may run at once (attached to every plan it builds);
	// sized once in Open from opts.Parallelism, immutable afterwards.
	pool *morsel.Pool

	// durCfg collects the durability options at Open time; dur is the
	// running durability engine (WAL + checkpoints), nil for an
	// in-memory DB. Set once in Open, immutable afterwards — write paths
	// branch on dur == nil. See durability.go.
	durCfg    *durabilityConfig
	dur       *durability
	closeOnce sync.Once
}

// Option configures a DB at Open time.
type Option func(*DB)

// WithPlanCache enables the compiled-plan cache with the given entry
// capacity (<= 0 selects plancache.DefaultCapacity). Cache hits skip
// parsing, planning, generation, and compilation entirely; entries
// self-invalidate when the catalogue version changes (DDL, index builds,
// writes to a referenced table). A separate same-capacity cache holds
// planned DML descriptors (see DB.Exec), so write traffic cannot evict
// compiled queries.
func WithPlanCache(capacity int) Option {
	return func(db *DB) {
		db.cache = plancache.New(capacity)
		db.writeCache = plancache.New(capacity)
	}
}

// WithCatalog opens the database over an existing catalogue (e.g. a
// generated TPC-H instance) instead of an empty one.
func WithCatalog(cat *catalog.Catalog) Option {
	return func(db *DB) { db.cat = cat }
}

// WithEngine fixes the engine every SELECT runs on; nil keeps the
// default compiled -O2 pipeline.
func WithEngine(e Engine) Option {
	return func(db *DB) { db.exec = e }
}

// WithParallelism sets the worker target for morsel-driven parallel
// execution of the fused pipelines: n workers cooperate on large scans
// and join probe phases, with results stitched back in morsel order so
// they stay byte-identical to serial execution. n <= 0 restores the
// default (GOMAXPROCS); n == 1 forces every query serial. Inputs below
// the codegen serial threshold run serial regardless of n, so point
// queries never pay a scheduling cost.
func WithParallelism(n int) Option {
	return func(db *DB) {
		if n < 0 {
			n = 0
		}
		db.opts.Parallelism = n
	}
}

// Open creates a database using the holistic engine. Options enable the
// plan cache, adopt an existing catalogue, inject another engine, or make
// the database durable (WithDurability; recovery failures panic here —
// servers should use OpenDurable for an error instead).
func Open(options ...Option) *DB {
	db, err := newDB(options)
	if err != nil {
		panic(err)
	}
	return db
}

// newDB is the shared constructor behind Open and OpenDurable. Metrics
// come up before durability so recovery's fsyncs already observe into
// the hique_wal_fsync_seconds histogram.
func newDB(options []Option) (*DB, error) {
	db := &DB{cat: catalog.New(), opts: plan.DefaultOptions()}
	for _, o := range options {
		o(db)
	}
	workers := db.opts.Parallelism
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	db.pool = morsel.NewPool(workers)
	db.met = newDBMetrics(db)
	if db.durCfg != nil && db.durCfg.dir != "" {
		if err := db.openDurability(); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// Metrics exposes the DB's telemetry registry for exposition (the HTTP
// server's GET /metrics writes it in the Prometheus text format).
// Telemetry is always on; recording costs a few atomic adds per query.
func (db *DB) Metrics() *obs.Registry { return db.met.reg }

// EngineName reports the engine's display name: "HIQUE" for the
// default, the injected executor's own otherwise.
func (db *DB) EngineName() string {
	if db.exec != nil {
		return db.exec.Name()
	}
	return "HIQUE"
}

// CreateTable registers an empty table with the given columns.
func (db *DB) CreateTable(name string, cols ...Column) error {
	name = strings.ToLower(name)
	if len(cols) == 0 {
		return fmt.Errorf("hique: table %q needs at least one column", name)
	}
	tcols := make([]types.Column, len(cols))
	for i, c := range cols {
		tcols[i] = types.Column{Name: strings.ToLower(c.Name), Kind: c.kind, Size: c.size}
	}
	schema := types.NewSchema(tcols...)
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	if _, err := db.cat.Lookup(name); err == nil {
		return fmt.Errorf("hique: table %q already exists", name)
	}
	var lsn uint64
	if db.dur != nil {
		payload, err := encodeCreateTable(name, schema)
		if err != nil {
			return fmt.Errorf("hique: logging create table: %w", err)
		}
		if lsn, err = db.dur.logAppend(recCreateTable, payload); err != nil {
			return err
		}
	}
	db.cat.Register(storage.NewTable(name, schema))
	if db.dur != nil {
		return db.dur.logCommit(lsn)
	}
	return nil
}

// Insert appends one row; values coerce to the column types by the same
// rules as query bind parameters (coerceValue): int/int64/integral
// float64 for Int and Date, "YYYY-MM-DD" strings for Date, int widening
// for Float, strings for Char. Strings wider than the CHAR(n) column are
// rejected with a *WidthError rather than truncated. The row is also
// registered with every index on the table.
func (db *DB) Insert(table string, values ...any) error {
	e, err := db.cat.Lookup(strings.ToLower(table))
	if err != nil {
		return err
	}
	s := e.Table.Schema()
	if len(values) != s.NumColumns() {
		return fmt.Errorf("hique: table %q has %d columns, got %d values", table, s.NumColumns(), len(values))
	}
	name := e.Table.Name()
	row := make([]types.Datum, len(values))
	for i, v := range values {
		col := s.Column(i)
		d, err := coerceValue(v, col.Kind)
		if err != nil {
			return fmt.Errorf("hique: column %q: %w", col.Name, err)
		}
		if err := checkWidth(name, col, d); err != nil {
			return err
		}
		row[i] = d
	}
	var walBuf []byte
	if db.dur != nil {
		walBuf = encodeInsertRow(nil, name, s, row)
	}
	lsn, err := db.insertLocked(e, row, walBuf)
	if err != nil {
		return err
	}
	if db.dur != nil {
		return db.dur.logCommit(lsn)
	}
	return nil
}

// insertLocked appends one validated row under the entry's writer lock,
// logging it first on a durable DB. The unlock defer is registered
// before containPanic so LIFO order converts a panic inside the append
// into a statement error while the lock is still held (recountOnPanic
// then repairs the statistics), then releases — the write-path
// containment invariant (hique-vet: containment).
func (db *DB) insertLocked(e *catalog.TableEntry, row []types.Datum, walBuf []byte) (lsn uint64, err error) {
	e.Lock()
	defer e.Unlock()
	defer db.recountOnPanic(e, &err)
	defer containPanic(&err)
	if db.dur != nil {
		if lsn, err = db.dur.logAppend(recInsert, walBuf); err != nil {
			return 0, err
		}
	}
	appendRowLocked(e, row)
	db.cat.Wrote(e)
	return lsn, nil
}

// lockSet is a statement's table entries, deduplicated and sorted by
// TableEntry.ID — the single global acquisition order every multi-lock
// path shares, which precludes deadlock against the single-table writer
// locks of the DML path. lockTables is its only constructor (hique-vet:
// lockorder), so a stored set can be locked again without re-sorting.
type lockSet []*catalog.TableEntry

// lockEntries is the one loop that takes table-entry locks for statement
// execution: reader locks, in set order. (Writers lock the one table they
// mutate.)
func lockEntries(entries lockSet) {
	for _, e := range entries {
		e.RLock()
	}
}

// unlockEntries releases what lockEntries took, in reverse order.
func unlockEntries(entries lockSet) {
	for i := len(entries) - 1; i >= 0; i-- {
		entries[i].RUnlock()
	}
}

// lockTables resolves the named tables into a lockSet and read-locks it,
// returning the matching unlock plus the set actually locked — a name
// missing from the catalogue is skipped, and callers that later resolve
// it (a table registered mid-flight) must notice and retry. Two aliases
// of one table share an entry, which is locked once (a recursive RLock
// could deadlock against a queued writer).
func (db *DB) lockTables(names []string) (unlock func(), entries lockSet) {
	found := make([]*catalog.TableEntry, 0, len(names))
	for _, n := range names {
		if e, err := db.cat.Lookup(n); err == nil {
			found = append(found, e)
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].ID() < found[j].ID() })
	entries = lockSet(slices.Compact(found))
	lockEntries(entries)
	return func() { unlockEntries(entries) }, entries
}

// planLocked parses and optimises a query, returning the plan together
// with the locked entries of every referenced table and the function
// releasing them. Writers keep statistics current under the writer lock,
// so the reader locks pin data and statistics that agree.
func (db *DB) planLocked(query string) (*plan.Plan, lockSet, func(), error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, nil, nil, err
	}
	names := make([]string, len(stmt.From))
	for i, t := range stmt.From {
		names[i] = t.Name
	}
	for {
		p, entries, unlock, err := db.planAttempt(stmt, names)
		if err != nil {
			return nil, nil, nil, err
		}
		if p == nil {
			continue
		}
		p.Pool = db.pool
		return p, entries, unlock, nil
	}
}

// planAttempt runs one lock/recheck round for planLocked: take the
// tables' reader locks and build the plan under them. On success the
// locks transfer to the caller through the returned unlock function; on
// retry (a nil plan: a table registered mid-flight) or error every lock
// is released here.
// The conditional-release defer is registered before containPanic so a
// panic inside plan building is contained first and then releases the
// locks (hique-vet: containment, lockorder).
func (db *DB) planAttempt(stmt *sql.SelectStmt, names []string) (p *plan.Plan, entries lockSet, unlock func(), err error) {
	unlockAll, entries := db.lockTables(names)
	keep := false
	defer func() {
		if !keep {
			unlockAll()
		}
	}()
	defer containPanic(&err)
	// Build reads the statistics of every table it resolves, and writers
	// change them under the writer lock, so each name must resolve to a
	// locked entry first. A name missing at lock time either still is
	// (fail as Build would) or was registered since (retry).
	for _, n := range names {
		if !slices.ContainsFunc(entries, func(e *catalog.TableEntry) bool { return e.Table.Name() == n }) {
			if _, err := db.cat.Lookup(n); err != nil {
				return nil, nil, nil, err
			}
			return nil, nil, nil, nil
		}
	}
	p, err = plan.BuildWithOptions(stmt, db.cat, db.opts)
	if err != nil {
		return nil, nil, nil, err
	}
	// A table dropped and registered again since the lock resolves to a
	// new entry; using the plan then would scan it unlocked. Each resolved
	// entry must be in the locked set — else retry.
	for i := range p.Tables {
		if !slices.Contains(entries, p.Tables[i].Entry) {
			return nil, nil, nil, nil
		}
	}
	keep = true
	return p, entries, unlockAll, nil
}

// Result is a materialised query result. All rows share one flat cell
// arena: Rows[i] are adjacent windows of a single backing slice, so a
// result materialises with a constant number of allocations regardless
// of row count — and none at all when a Reset result is reused through
// QueryInto.
type Result struct {
	Columns []string
	Rows    [][]any
	// Elapsed is the execution wall time (preparation excluded).
	Elapsed time.Duration

	// cells is the flat backing arena the rows window into.
	cells []any
}

// Reset clears the result for reuse, retaining the backing capacity so a
// subsequent QueryInto materialises into the same memory. The previous
// Columns/Rows contents must no longer be referenced.
func (r *Result) Reset() {
	r.Columns = r.Columns[:0]
	r.Rows = r.Rows[:0]
	r.cells = r.cells[:0]
	r.Elapsed = 0
}

// materialiseInto decodes the result table into res, reusing its backing
// arena. It iterates pages directly (no closure) and boxes each datum
// exactly once into the flat cell arena.
func materialiseInto(res *Result, columns []string, out *storage.Table, elapsed time.Duration) {
	res.Columns = append(res.Columns[:0], columns...)
	res.Elapsed = elapsed
	s := out.Schema()
	nc := s.NumColumns()
	nr := out.NumRows()

	cells := res.cells[:0]
	if cap(cells) < nr*nc {
		cells = make([]any, 0, nr*nc)
	}
	for pi := 0; pi < out.NumPages(); pi++ {
		pg := out.Page(pi)
		n := pg.NumTuples()
		ts := pg.TupleSize()
		data := pg.Data()
		for j := 0; j < n; j++ {
			tuple := data[j*ts : j*ts+ts]
			for i := 0; i < nc; i++ {
				d := s.GetDatum(tuple, i)
				switch d.Kind {
				case types.Float:
					cells = append(cells, d.F)
				case types.String:
					cells = append(cells, d.S)
				default:
					cells = append(cells, d.I)
				}
			}
		}
	}
	res.cells = cells

	rows := res.Rows[:0]
	if cap(rows) < nr {
		rows = make([][]any, 0, nr)
	}
	for i := 0; i < nr; i++ {
		rows = append(rows, cells[i*nc:(i+1)*nc:(i+1)*nc])
	}
	res.Rows = rows
}

// Query parses, optimises, and executes a SELECT statement. The
// statement may contain '?' placeholders, one value per placeholder in
// args: db.Query("SELECT * FROM t WHERE id = ?", 42).
//
// With the plan cache enabled (WithPlanCache), a repeated statement skips
// the whole preparation pipeline: the cache is consulted with only a
// lexer pass, and a hit runs the previously prepared artefact with a
// freshly bound parameter vector. That lexer pass also lifts literal
// comparison constants out of the WHERE clause, so even un-annotated SQL
// collapses to its shape and N distinct-constant point queries compile
// exactly once.
func (db *DB) Query(query string, args ...any) (*Result, error) {
	res := &Result{}
	if err := db.queryInto(res, query, args); err != nil {
		return nil, err
	}
	return res, nil
}

// QueryInto is Query materialising into a caller-supplied result, whose
// backing memory (columns, rows, the flat cell arena) is reused across
// calls: a serving loop that recycles one Result per worker materialises
// repeated queries without allocating. The result is Reset first; on
// error its contents are unspecified.
func (db *DB) QueryInto(res *Result, query string, args ...any) error {
	res.Reset()
	return db.queryInto(res, query, args)
}

// queryScratch holds every buffer a warm statement needs: the shape
// extractor's token/output/literal buffers, the rendered cache key, and
// the bind vector. One scratch serves one statement execution, drawn
// from a pool, so the warm hit path allocates nothing before
// materialisation.
type queryScratch struct {
	shape  sql.ShapeBuf
	key    []byte
	params []types.Datum
}

var queryScratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

func (db *DB) queryInto(dst *Result, query string, args []any) (err error) {
	// Count the statement and classify its failure on the way out;
	// registered before containPanic so the LIFO defer order lets the
	// panic convert to an error first.
	defer db.met.noteQuery(&err)
	// Last-resort containment: execution and materialisation panics are
	// converted lock-safely inside lease; this outer recover catches
	// anything unexpected above it so one statement cannot kill a process
	// serving thousands of sessions.
	defer containPanic(&err)
	sc := queryScratchPool.Get().(*queryScratch)
	defer queryScratchPool.Put(sc)

	// Without a cache to keep the artefact in, the text is prepared as
	// given.
	cached := db.cache != nil
	text := query
	if cached {
		// The shape is already normalized and its arity known, so the
		// whole hit path costs the one lexer pass.
		if err := sc.shape.Shape(query); err != nil {
			return err
		}
		sc.key = codegen.AppendCacheKey(sc.key[:0], sc.shape.Out, len(sc.shape.Lits), db.opts, codegen.OptO2)
		if v, _, ok := db.cache.GetStamped(sc.key); ok {
			// Read keys and write keys occupy distinct caches, so the
			// entry is always an artefact.
			if stale, err := db.lease(dst, v.(*artefact), nil, sc, true, args); !stale {
				return err
			}
			// A writer moved the catalogue since compilation: reclassify
			// the premature hit and prepare afresh.
			db.cache.Invalidate(string(sc.key))
		}
		text = string(sc.shape.Out)
	}
	art, unlock, err := db.prepare(text, nil)
	if err != nil {
		return err
	}
	if cached {
		db.cache.Put(string(sc.key), art.stamp, art)
	}
	_, err = db.lease(dst, art, unlock, sc, cached, args)
	return err
}

// artefact is a prepared SELECT: everything an execution needs that does
// not change between executions, resolved once at prepare time. The plan
// cache and Prepared handles keep artefacts; uncached statements and
// EXPLAIN ANALYZE build one per execution. Artefacts are immutable and
// shared across concurrent executions.
type artefact struct {
	plan *plan.Plan
	// cq is the compiled -O2 query on a DB without an executor; when nil,
	// the DB's executor runs the bound plan.
	cq *codegen.CompiledQuery
	// entries are the referenced tables' locks in acquisition order;
	// names lists the same tables for the stamp check.
	entries lockSet
	names   []string
	// stamp is the catalogue stamp (epoch + referenced tables' versions)
	// the plan was built against.
	stamp uint64
	// lat is the cold/warm latency pair, resolved here so an execution
	// records its duration without classifying the plan.
	lat *[nTemp]*obs.Histogram
}

// prepare is the one preparation step: plan the text under the table
// locks, compile it unless the DB has an executor, and stamp the result.
// The locks planLocked took are still held on success and transfer to the
// caller through unlock — lease executes under them, Prepare just
// releases them. tr, when non-nil, is attached to the plan before
// compilation so fused loops bake their trace hooks in.
func (db *DB) prepare(text string, tr *plan.Trace) (*artefact, func(), error) {
	p, entries, unlock, err := db.planLocked(text)
	if err != nil {
		return nil, nil, err
	}
	p.Trace = tr
	art := &artefact{plan: p, entries: entries, names: make([]string, len(p.Tables))}
	for i := range p.Tables {
		art.names[i] = p.Tables[i].Name
	}
	art.stamp = db.cat.StampFor(art.names)
	if db.exec == nil {
		if art.cq, err = codegen.Generate(p, codegen.OptO2); err != nil {
			unlock()
			return nil, nil, err
		}
	}
	art.lat = db.met.latFor(p, art.cq != nil)
	return art, unlock, nil
}

// lease runs one execution of a prepared statement — the single read
// path behind Query, QueryInto, Prepared.Run, and ExplainAnalyze. With a
// nil unlock it takes the artefact's reader locks in stored order and
// validates the artefact under them (a moved catalogue stamp reports
// stale, and the caller prepares afresh); a
// non-nil unlock hands over the locks the prepare step still holds, under
// which the artefact was just built. It then binds lifted literals (when
// the artefact was prepared from sc's shape) and caller args into the
// pooled scratch, runs, and materialises into dst before the locks
// release: the result may alias base-table pages through an
// identity-elided projection.
//
// The unlock defer is registered before containPanic, so a panic in the
// engine run or the materialisation converts to a statement error in
// this frame while the locks are still held, and then releases them — a
// contained panic never leaks a table lock.
func (db *DB) lease(dst *Result, art *artefact, unlock func(), sc *queryScratch, shaped bool, args []any) (stale bool, err error) {
	held, temp := unlock != nil, tempCold
	if !held {
		temp = tempWarm
		lockStart := time.Now()
		lockEntries(art.entries)
		db.met.lockWait.Observe(time.Since(lockStart))
		unlock = func() { unlockEntries(art.entries) }
	}
	defer unlock()
	defer containPanic(&err)
	if !held && db.cat.StampFor(art.names) != art.stamp {
		return true, nil
	}
	sc.params, err = bindValuesInto(sc.params[:0], art.plan.Params, sc.shape.Lits, shaped, args)
	if err != nil {
		return false, err
	}
	start := time.Now()
	out, err := art.run(db.exec, sc.params)
	elapsed := time.Since(start)
	if err != nil {
		return false, err
	}
	// Deferred so a contained materialisation panic still returns the
	// pooled frames to the arena (it runs before containPanic recovers).
	defer out.Release()
	ensureGrouplessRow(art.plan, out)
	materialiseInto(dst, art.plan.OutputNames, out, elapsed)
	art.lat[temp].Observe(elapsed)
	return false, nil
}

// run executes the artefact against a bind vector already coerced to the
// plan's slot kinds: the compiled query, or else the bound plan on exec.
func (a *artefact) run(exec Engine, params []types.Datum) (*storage.Table, error) {
	if a.cq != nil {
		return a.cq.RunParams(params)
	}
	bp, err := a.plan.Bind(params)
	if err != nil {
		return nil, err
	}
	return exec.Execute(bp)
}

// ensureGrouplessRow appends the aggregate identity row when a
// group-less aggregate produced no groups: SQL requires exactly one row
// (COUNT of an empty input is 0) but the staged engines emit none. The
// engine has no NULLs, so SUM/MIN/MAX of an empty input report zero
// values.
func ensureGrouplessRow(p *plan.Plan, out *storage.Table) {
	if p.Agg == nil || len(p.Agg.GroupCols) != 0 || out.NumRows() != 0 {
		return
	}
	s := out.Schema()
	row := make([]types.Datum, s.NumColumns())
	for i := range row {
		switch c := s.Column(i); c.Kind {
		case types.Float:
			row[i] = types.FloatDatum(0)
		case types.String:
			row[i] = types.StringDatum("")
		default:
			row[i] = types.Datum{Kind: c.Kind}
		}
	}
	out.AppendRow(row...)
}

// Explain returns the optimizer's plan description.
func (db *DB) Explain(query string) (string, error) {
	p, _, unlock, err := db.planLocked(query)
	if err != nil {
		return "", err
	}
	defer unlock()
	return p.Explain(), nil
}

// GeneratedSource returns the query-specific source code the holistic code
// generator instantiates for the query (paper §V).
func (db *DB) GeneratedSource(query string) (string, error) {
	p, _, unlock, err := db.planLocked(query)
	if err != nil {
		return "", err
	}
	defer unlock()
	return codegen.EmitSource(p), nil
}

// Prepare plans and compiles a query without running it. The statement
// is planned as given — literals stay baked in, so it may select a
// literal-specialised fused pipeline — and may contain '?' placeholders;
// Run binds one value per placeholder.
func (db *DB) Prepare(query string) (*Prepared, error) {
	art, unlock, err := db.prepare(query, nil)
	if err != nil {
		return nil, err
	}
	unlock()
	return &Prepared{db: db, query: query, art: art}, nil
}

// Prepared is a statement handle ready for repeated execution: the
// artefact Query would run, kept outside the plan cache. It is not
// pinned to the catalogue state it was compiled against: Run
// re-validates the referenced tables' catalogue versions and
// transparently re-plans and re-compiles after writes, DDL, or index
// builds, so a long-lived handle never executes a stale plan.
type Prepared struct {
	db    *DB
	query string

	// mu guards art across Run's transparent re-prepares.
	mu  sync.Mutex
	art *artefact
}

func (p *Prepared) current() *artefact {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.art
}

// compiled returns the current compiled query with its source emitted
// and syntax-checked (paper Table III's generate and compile steps), or
// nil on a DB with an executor.
func (p *Prepared) compiled() *codegen.CompiledQuery {
	cq := p.current().cq
	if cq != nil {
		// The syntax check's verdict is not a preparation failure: the
		// closures run regardless, and TestGeneratedSourcesTypeCheck is
		// what proves emitted units well-formed.
		_ = cq.EnsureSource()
	}
	return cq
}

// Source returns the generated source file (empty on a DB with an
// executor, which compiles none).
func (p *Prepared) Source() string {
	if cq := p.compiled(); cq != nil {
		return cq.Source
	}
	return ""
}

// GenerateTime reports how long emitting the source file took (for the
// most recent compilation).
func (p *Prepared) GenerateTime() time.Duration {
	if cq := p.compiled(); cq != nil {
		return cq.Prep.Generate
	}
	return 0
}

// CompileTime reports how long compilation (syntax check + closure
// construction) took (for the most recent compilation).
func (p *Prepared) CompileTime() time.Duration {
	if cq := p.compiled(); cq != nil {
		return cq.Prep.Compile
	}
	return 0
}

// Run executes the prepared query with the given parameter values (one
// per '?' placeholder). If the catalogue moved since compilation — DDL,
// writes, index builds — the statement is re-planned
// and re-compiled first, so results always reflect a plan consistent with
// the data the table locks pin.
func (p *Prepared) Run(args ...any) (*Result, error) {
	res := &Result{}
	if err := p.RunInto(res, args...); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto is Run materialising into a caller-supplied result (see
// DB.QueryInto); a serving loop reusing one Result per worker executes a
// prepared statement with no per-call materialisation allocations.
func (p *Prepared) RunInto(res *Result, args ...any) (err error) {
	db := p.db
	defer db.met.noteQuery(&err)
	defer containPanic(&err)
	res.Reset()
	sc := queryScratchPool.Get().(*queryScratch)
	defer queryScratchPool.Put(sc)
	if stale, err := db.lease(res, p.current(), nil, sc, false, args); !stale {
		return err
	}
	art, unlock, err := db.prepare(p.query, nil)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.art = art
	p.mu.Unlock()
	_, err = db.lease(res, art, unlock, sc, false, args)
	return err
}

// Tables lists the catalogued table names.
func (db *DB) Tables() []string { return db.cat.Names() }

// RowCount returns a table's cardinality.
func (db *DB) RowCount(table string) (int, error) {
	e, err := db.cat.Lookup(strings.ToLower(table))
	if err != nil {
		return 0, err
	}
	e.RLock()
	defer e.RUnlock()
	return e.Table.NumRows(), nil
}

// BuildIndex creates a fractal B+-tree index on an integer column.
func (db *DB) BuildIndex(table, column string) error {
	table, column = strings.ToLower(table), strings.ToLower(column)
	e, err := db.cat.Lookup(table)
	if err != nil {
		return err
	}
	lsn, err := db.buildIndexLocked(e, table, column)
	if err == nil && db.dur != nil {
		return db.dur.logCommit(lsn)
	}
	return err
}

// buildIndexLocked logs and builds the index under the entry's writer
// lock. The unlock defer is registered before containPanic so a panic
// inside the build (a malformed column, an overflowing key) becomes a
// statement error before the lock releases (hique-vet: containment).
func (db *DB) buildIndexLocked(e *catalog.TableEntry, table, column string) (lsn uint64, err error) {
	e.Lock()
	defer e.Unlock()
	defer containPanic(&err)
	if db.dur != nil {
		// Logged before the build so a crash between the two replays the
		// build (idempotent) rather than losing the index.
		if lsn, err = db.dur.logAppend(recBuildIndex, encodeBuildIndex(table, column)); err != nil {
			return 0, err
		}
	}
	_, err = db.cat.BuildIndex(table, column)
	return lsn, err
}

// TableInfo returns one table's row count and rendered "name kind"
// column list under a properly ordered reader lock. The serving layer
// owns entry locks; callers outside it (the HTTP server's /tables
// endpoint) must read through this API instead of locking entries
// directly (hique-vet: lockorder).
func (db *DB) TableInfo(name string) (rows int, columns []string, err error) {
	name = strings.ToLower(name)
	unlock, entries := db.lockTables([]string{name})
	defer unlock()
	if len(entries) == 0 {
		return 0, nil, fmt.Errorf("hique: unknown table %q", name)
	}
	e := entries[0]
	rows = e.Table.NumRows()
	s := e.Table.Schema()
	for i := 0; i < s.NumColumns(); i++ {
		c := s.Column(i)
		columns = append(columns, fmt.Sprintf("%s %s", c.Name, c.Kind))
	}
	return rows, columns, nil
}

// DBStats is a point-in-time snapshot of the database's serving state.
type DBStats struct {
	Tables         int             `json:"tables"`
	CatalogVersion uint64          `json:"catalog_version"`
	Engine         string          `json:"engine"`
	CacheEnabled   bool            `json:"cache_enabled"`
	Cache          plancache.Stats `json:"cache"`
	// WriteCache tracks the DML descriptor cache (see DB.Exec).
	WriteCache plancache.Stats `json:"write_cache"`
	// Arena snapshots the page-arena balance (see storage.ArenaStats).
	Arena ArenaStats `json:"arena"`
	// Durability is nil for an in-memory DB (see WithDurability).
	Durability *DurabilityStats `json:"durability,omitempty"`
}

// ArenaStats is the page-arena balance: frames currently held by live
// pooled tables and the cumulative count returned for reuse.
type ArenaStats struct {
	PagesInUse    int64 `json:"pages_in_use"`
	PagesRecycled int64 `json:"pages_recycled"`
}

// Stats snapshots catalogue and plan-cache counters.
func (db *DB) Stats() DBStats {
	s := DBStats{
		Tables:         len(db.cat.Names()),
		CatalogVersion: db.cat.Version(),
		Engine:         db.EngineName(),
	}
	if db.cache != nil {
		s.CacheEnabled = true
		s.Cache = db.cache.Stats()
	}
	if db.writeCache != nil {
		s.WriteCache = db.writeCache.Stats()
	}
	s.Arena.PagesInUse, s.Arena.PagesRecycled = storage.ArenaStats()
	s.Durability = db.durabilityStats()
	return s
}

// Catalog exposes the underlying catalogue for advanced embedding (the
// bench harness and the CLI tools use this).
func (db *DB) Catalog() *catalog.Catalog { return db.cat }
