package hique

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"hique/internal/btree"
	"hique/internal/catalog"
	"hique/internal/core"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/types"
)

// ExecResult reports the outcome of a DML statement.
type ExecResult struct {
	// RowsAffected counts rows inserted, deleted, or updated.
	RowsAffected int
	// Elapsed is the execution wall time (preparation excluded).
	Elapsed time.Duration
}

// WidthError reports a string value wider than its CHAR(n) column. The
// engine stores values untruncated — a silently truncated insert would
// make a later point query for the full value miss while the truncated
// value matches — so oversized strings are rejected on every write path:
// the Go-API Insert, SQL INSERT, and SQL UPDATE.
type WidthError struct {
	Table, Column string
	Width, Len    int
}

func (e *WidthError) Error() string {
	return fmt.Sprintf("hique: value for column %s.%s is %d bytes, exceeding CHAR(%d) (strings are stored untruncated)",
		e.Table, e.Column, e.Len, e.Width)
}

// PanicError is a statement-level failure recovered from an engine panic.
// Execution engines reject malformed descriptor combinations by panicking
// deep inside generated or specialised code; the serving layer converts
// those into per-statement errors so one crafted query cannot take down
// the process (the HTTP front end maps it to 422).
type PanicError struct{ V any }

func (e *PanicError) Error() string {
	return fmt.Sprintf("hique: statement aborted by internal panic: %v", e.V)
}

// containPanic converts a panic unwinding through a statement entry point
// into a *PanicError. Use with defer on named error results.
func containPanic(err *error) {
	if r := recover(); r != nil {
		*err = &PanicError{V: r}
	}
}

// appendWriteCacheKey renders the write-plan cache key for a DML
// statement into dst: a "dml" prefix, the placeholder arity, and the
// normalised statement text. (Write plans live in their own cache; the
// prefix additionally keeps the key space disjoint from read keys, which
// start with a decimal length.)
func appendWriteCacheKey(dst []byte, norm []byte, arity int) []byte {
	dst = append(dst, "dml\x00"...)
	dst = strconv.AppendInt(dst, int64(arity), 10)
	dst = append(dst, 0)
	return append(dst, norm...)
}

// execScratch holds the buffers a warm cached DML statement needs — the
// normaliser's token/output buffers, the rendered cache key, and the bind
// vector — pooled so the hot ingest shape (a repeated parameterized
// INSERT) reaches the writer lock without allocating.
type execScratch struct {
	norm   sql.NormBuf
	key    []byte
	params []types.Datum
	// wal stages the statement's WAL record, encoded from the bound
	// plan before the writer lock is taken (durable DBs only).
	wal []byte
}

var execScratchPool = sync.Pool{New: func() any { return new(execScratch) }}

// Exec parses, plans, and executes a DML statement — INSERT INTO ...
// VALUES (multi-row), DELETE FROM ... WHERE, UPDATE ... SET ... WHERE —
// with '?' placeholders bound from args exactly as in Query. The whole
// statement applies under one writer-lock acquisition with a single
// catalogue-version bump, so a 1000-row multi-VALUES insert pays the
// per-statement costs once, not per row.
//
// With the plan cache enabled, the planned write descriptor is cached —
// in a dedicated same-capacity LRU, so write traffic never evicts
// compiled queries — under the normalised statement text: a repeated
// parameterized INSERT, the hot ingest shape, skips re-parsing and
// re-planning entirely.
func (db *DB) Exec(query string, args ...any) (res ExecResult, err error) {
	// Statement accounting, registered before containPanic so a contained
	// panic is classified as such (LIFO defer order).
	defer db.met.noteQuery(&err)
	defer containPanic(&err)

	sc := execScratchPool.Get().(*execScratch)
	defer execScratchPool.Put(sc)

	var wp *plan.WritePlan
	if db.writeCache != nil {
		arity, err := sc.norm.Normalize(query)
		if err != nil {
			return ExecResult{}, err
		}
		sc.key = appendWriteCacheKey(sc.key[:0], sc.norm.Out, arity)
		if v, _, ok := db.writeCache.GetStamped(sc.key); ok {
			wp, _ = v.(*plan.WritePlan)
		}
	}
	replan := func() (*plan.WritePlan, error) {
		w, err := db.planWrite(query)
		if err != nil {
			return nil, err
		}
		if db.writeCache != nil {
			db.writeCache.Put(string(sc.key), db.cat.Version(), w)
		}
		return w, nil
	}
	// A write-cache hit is the warm DML shape (the repeated parameterized
	// INSERT); a miss pays parse + plan, the cold shape.
	temp := tempCold
	if wp != nil {
		temp = tempWarm
	}
	if wp == nil {
		if wp, err = replan(); err != nil {
			return ExecResult{}, err
		}
	}
	invalidate := func() {
		if db.writeCache != nil {
			db.writeCache.Invalidate(string(sc.key))
		}
	}
	res, err = db.execWrite(wp, args, sc, invalidate, replan)
	if err == nil {
		db.met.lat[classDML][pathGeneral][temp].Observe(res.Elapsed)
	}
	return res, err
}

// planWrite parses and plans a DML statement, validating literal widths
// once — a cached plan never re-checks them (parameter widths are
// enforced at bind time through ParamSlot.Size).
func (db *DB) planWrite(query string) (*plan.WritePlan, error) {
	stmt, err := sql.ParseStmt(query)
	if err != nil {
		return nil, err
	}
	if _, isSelect := stmt.(*sql.SelectStmt); isSelect {
		return nil, fmt.Errorf("hique: Exec requires a DML statement (INSERT, DELETE, UPDATE); use Query for SELECT")
	}
	wp, err := plan.BuildWrite(stmt, db.cat)
	if err != nil {
		return nil, err
	}
	if err := checkLiteralWidths(wp); err != nil {
		return nil, err
	}
	return wp, nil
}

// execWrite binds and applies a write plan: coerce the caller arguments,
// resolve the parameter slots, take the table writer lock, revalidate the
// plan against the catalogue (the table may have been dropped or
// recreated since planning — invalidate and replan when it was), and
// mutate.
func (db *DB) execWrite(wp *plan.WritePlan, args []any, sc *execScratch, invalidate func(), replan func() (*plan.WritePlan, error)) (ExecResult, error) {
	for attempt := 0; ; attempt++ {
		params, err := bindValuesInto(sc.params[:0], wp.Params, nil, false, args)
		sc.params = params
		if err != nil {
			return ExecResult{}, err
		}
		bound, err := wp.Bind(params)
		if err != nil {
			return ExecResult{}, err
		}
		// Encode the WAL record from the bound plan outside the lock —
		// the bound copy is immutable, so only the append itself has to
		// happen inside.
		var walType byte
		if db.dur != nil {
			sc.wal, walType = encodeWritePlan(sc.wal[:0], bound)
		}
		e := wp.Entry
		start := time.Now()
		e.Lock()
		db.met.lockWait.Observe(time.Since(start))
		if cur, lerr := db.cat.Lookup(wp.Table); lerr != nil || cur != e {
			e.Unlock()
			invalidate()
			if attempt >= 3 {
				if lerr == nil {
					lerr = fmt.Errorf("hique: table %q changed during execution", wp.Table)
				}
				return ExecResult{}, lerr
			}
			if wp, err = replan(); err != nil {
				return ExecResult{}, err
			}
			continue
		}
		n, lsn, err := db.applyLocked(e, bound, walType, sc.wal)
		if err == nil && db.dur != nil {
			// The lock is released: waiting out the fsync (group commit
			// under -fsync=always) stalls only this statement's ack,
			// never readers or other writers.
			err = db.dur.logCommit(lsn)
		}
		return ExecResult{RowsAffected: n, Elapsed: time.Since(start)}, err
	}
}

// applyLocked runs the mutation with the entry's writer lock held and
// guarantees its release: a panic inside the apply is converted to a
// statement error *before* the deferred unlock runs, so a contained
// write-path panic can never wedge the table (the read path's lease
// gives the same guarantee under reader locks). The apply step keeps the
// table's statistics current, and a statement that changed rows bumps the
// table's version once (Catalog.Wrote); on a panic the heap may hold a
// partial batch, so recountOnPanic rebuilds the statistics from it.
//
// On a durable DB the statement's record is appended to the WAL first,
// still under the lock: an append failure fails the statement with the
// heap untouched, and the lock ordering makes per-table LSN order equal
// apply order. The returned lsn is what the caller must logCommit
// before acknowledging.
func (db *DB) applyLocked(e *catalog.TableEntry, w *plan.WritePlan, walType byte, walRec []byte) (n int, lsn uint64, err error) {
	defer e.Unlock()
	defer db.recountOnPanic(e, &err)
	defer containPanic(&err)
	if db.dur != nil {
		if lsn, err = db.dur.logAppend(walType, walRec); err != nil {
			return 0, 0, err
		}
	}
	if n = applyWrite(e, w); n > 0 {
		db.cat.Wrote(e)
	}
	return n, lsn, nil
}

// recountOnPanic runs, still under the writer lock, after containPanic
// converted a panic in a write's apply step: the heap may hold a partial
// batch and the value counts a partial tuple, so the statistics are
// rebuilt from the heap and the version bumped, and the next read plans
// against what is actually there.
func (db *DB) recountOnPanic(e *catalog.TableEntry, err *error) {
	if _, ok := (*err).(*PanicError); !ok {
		return
	}
	defer containPanic(err)
	e.Recount()
	db.cat.BumpTableVersion(e.Table.Name())
}

// checkLiteralWidths rejects oversized string literals in a write plan's
// value rows and SET assignments. It runs once at plan time — literal
// widths are immutable plan properties, so cached executions skip the
// scan; parameter slots (zero-value datums here) are checked at bind
// time instead via their ParamSlot.Size.
func checkLiteralWidths(w *plan.WritePlan) error {
	s := w.Schema
	for _, row := range w.Rows {
		for ci := range row {
			if err := checkWidth(w.Table, s.Column(ci), row[ci].Val); err != nil {
				return err
			}
		}
	}
	for i := range w.Sets {
		if err := checkWidth(w.Table, s.Column(w.Sets[i].Col), w.Sets[i].Val.Val); err != nil {
			return err
		}
	}
	return nil
}

// checkWidth rejects a string datum wider than its CHAR(n) column.
func checkWidth(table string, col types.Column, d types.Datum) error {
	if d.Kind == types.String && len(d.S) > col.Size {
		return &WidthError{Table: table, Column: col.Name, Width: col.Size, Len: len(d.S)}
	}
	return nil
}

// applyWrite mutates the table under its already-held writer lock,
// reporting every tuple to the entry's statistics hooks, and returns the
// affected row count. The bound plan carries no parameter
// slots and has passed width checks, so no error path remains past this
// point — the statement applies atomically.
func applyWrite(e *catalog.TableEntry, w *plan.WritePlan) int {
	switch w.Kind {
	case plan.WriteInsert:
		return applyInsert(e, w.Rows)
	case plan.WriteDelete:
		return applyDelete(e, w.Filters)
	case plan.WriteUpdate:
		return applyUpdate(e, w.Filters, w.Sets)
	}
	panic(fmt.Sprintf("hique: unknown write kind %v", w.Kind))
}

// rowScratchPool recycles the datum row the insert loop decodes into.
var rowScratchPool = sync.Pool{New: func() any { return new([]types.Datum) }}

// applyInsert appends every value row and registers each with the table's
// indexes — the batched body shared by SQL INSERT and the Go-API Insert.
func applyInsert(e *catalog.TableEntry, rows [][]plan.WriteValue) int {
	scratchp := rowScratchPool.Get().(*[]types.Datum)
	row := *scratchp
	for _, vals := range rows {
		row = row[:0]
		for i := range vals {
			row = append(row, vals[i].Val)
		}
		appendRowLocked(e, row)
	}
	*scratchp = row
	rowScratchPool.Put(scratchp)
	return len(rows)
}

// appendRowLocked appends one row, counts it into the table's statistics
// and inserts its key into every index on the table, keeping index scans
// consistent with the heap (previously an insert after BuildIndex was
// invisible to index-probing plans). Caller holds the entry's writer lock
// and ends the statement with Catalog.Wrote.
func appendRowLocked(e *catalog.TableEntry, row []types.Datum) {
	t := e.Table
	// Fill the reserved slot in place instead of AppendRow: encoding
	// straight into the page skips the per-row tuple buffer, and the
	// columns jointly cover every byte of the slot.
	s := t.Schema()
	slotBytes := t.AppendSlot()
	for i := range row {
		s.PutDatum(slotBytes, i, row[i])
	}
	e.Added(slotBytes)
	if len(e.Indexes) == 0 {
		return
	}
	pg := t.NumPages() - 1
	slot := t.Page(pg).NumTuples() - 1
	rid := btree.RID{Page: int32(pg), Slot: int32(slot)}
	for column, tree := range e.Indexes {
		if ci := s.ColumnIndex(column); ci >= 0 {
			tree.Insert(row[ci].I, rid)
		}
	}
}

// applyDelete removes matching rows by sliding survivors down over them
// in place (storage.Table.Compact), skipping the pages whose bounds the
// filters exclude and uncounting each removed row from the statistics,
// then rebuilds every index (row identifiers shift).
func applyDelete(e *catalog.TableEntry, filters []plan.Filter) int {
	t := e.Table
	if len(filters) == 0 {
		n := t.NumRows()
		if n > 0 {
			t.Truncate()
			e.Cleared()
			e.RebuildIndexes(nil)
		}
		return n
	}
	preds := core.CompilePreds(t.Schema(), filters)
	prune := core.Pruner(preds)
	skipped := 0
	removed := t.Compact(func(pi int) bool {
		if len(prune) > 0 && !core.PageMayMatch(prune, t, pi, nil) {
			skipped++
			return true
		}
		return false
	}, func(tuple []byte) bool {
		if !core.MatchPreds(preds, tuple, nil) {
			return false
		}
		e.Removed(tuple)
		return true
	})
	core.CountSkipped(skipped)
	if removed > 0 {
		e.RebuildIndexes(nil)
	}
	return removed
}

// applyUpdate assigns the set columns on matching rows in place (NSM
// tuples are fixed-width, so no row moves), skipping the pages whose
// bounds the filters exclude and recounting each updated row, then
// rebuilds exactly the indexes whose key column was assigned.
func applyUpdate(e *catalog.TableEntry, filters []plan.Filter, sets []plan.SetColumn) int {
	t := e.Table
	s := t.Schema()
	preds := core.CompilePreds(s, filters)
	prune := core.Pruner(preds)
	n, skipped := 0, 0
	sc := core.GetScratch()
	defer sc.Put()
	for pi := 0; pi < t.NumPages(); pi++ {
		if len(prune) > 0 && !core.PageMayMatch(prune, t, pi, nil) {
			skipped++
			continue
		}
		pg := t.Page(pi)
		ts := pg.TupleSize()
		data := pg.Data()
		for _, i := range sc.Select(preds, data, pg.NumTuples(), ts, nil) {
			tuple := data[int(i)*ts : int(i)*ts+ts]
			if n == 0 {
				// Page bytes change without going through Append: record
				// the mutation before the first write, so engines revalidate
				// cached derived forms and the page's bounds settle again.
				t.Rewrite(pi)
			}
			e.Removed(tuple)
			for k := range sets {
				s.PutDatum(tuple, sets[k].Col, sets[k].Val.Val)
			}
			e.Added(tuple)
			n++
		}
	}
	core.CountSkipped(skipped)
	if n > 0 {
		if len(e.Indexes) > 0 {
			touched := make([]string, 0, len(sets))
			for k := range sets {
				touched = append(touched, s.Column(sets[k].Col).Name)
			}
			e.RebuildIndexes(touched)
		}
	}
	return n
}

// PrepareExec plans a DML statement without running it; Run binds one
// value per '?' placeholder and applies it. A long-lived handle is the
// cheapest ingest path: repeated Runs skip parsing and planning without
// even the plan-cache lookup.
func (db *DB) PrepareExec(query string) (*PreparedExec, error) {
	wp, err := db.planWrite(query)
	if err != nil {
		return nil, err
	}
	return &PreparedExec{db: db, query: query, plan: wp}, nil
}

// PreparedExec is a planned DML statement ready for repeated execution.
// Like Prepared, it is not pinned to the catalogue state it was planned
// against: Run revalidates the target table's identity and transparently
// re-plans after DDL, so a long-lived handle never writes through a stale
// descriptor.
type PreparedExec struct {
	db    *DB
	query string

	// mu guards plan across Run's transparent re-prepares.
	mu   sync.Mutex
	plan *plan.WritePlan
}

// Run executes the prepared statement with the given parameter values
// (one per '?' placeholder).
func (p *PreparedExec) Run(args ...any) (res ExecResult, err error) {
	defer p.db.met.noteQuery(&err)
	defer containPanic(&err)
	sc := execScratchPool.Get().(*execScratch)
	defer execScratchPool.Put(sc)
	p.mu.Lock()
	wp := p.plan
	p.mu.Unlock()
	res, err = p.db.execWrite(wp, args, sc, func() {}, func() (*plan.WritePlan, error) {
		w, err := p.db.planWrite(p.query)
		if err != nil {
			return nil, err
		}
		p.mu.Lock()
		p.plan = w
		p.mu.Unlock()
		return w, nil
	})
	if err == nil {
		// A prepared handle skips parse and plan every Run: warm.
		p.db.met.lat[classDML][pathGeneral][tempWarm].Observe(res.Elapsed)
	}
	return res, err
}
