// Package catalog implements the system catalogue: the registry of tables,
// their schemata, indexes, and the per-column statistics the optimizer uses
// to order joins and to pick staging/aggregation algorithms (paper §IV).
package catalog

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"hique/internal/btree"
	"hique/internal/storage"
	"hique/internal/types"
)

// MaxDirectoryValues bounds how many distinct values the catalogue retains
// per column. Columns at or below this cardinality can be fine-partitioned
// or map-aggregated through value directories (paper §V-B); beyond it the
// optimizer falls back to coarse (hash) algorithms.
const MaxDirectoryValues = 131072

// ColumnStats summarises one column for the optimizer.
type ColumnStats struct {
	DistinctValues int
	// Min and Max are meaningful for Int/Date columns only; for others
	// they are zero.
	Min, Max int64
	// IntValues holds the sorted distinct values of an Int/Date column
	// when there are at most MaxDirectoryValues of them; nil otherwise.
	// A write's settle edits it in place: plans read a column's directory
	// through TableEntry.Directory, never through these slices.
	IntValues []int64
	// StrValues is the analogous directory for String columns.
	StrValues []string
}

// DirectoryLen is the size of the column's value directory, 0 when the
// catalogue keeps none: what the planner's rules read, without a
// snapshot.
func (cs *ColumnStats) DirectoryLen() int { return len(cs.IntValues) + len(cs.StrValues) }

// TableStats summarises a table.
type TableStats struct {
	Rows    int
	Columns []ColumnStats
}

// entryIDs hands out process-unique table identifiers; see TableEntry.ID.
var entryIDs atomic.Uint64

// TableEntry is a catalogued table: heap, stats, and any indexes.
type TableEntry struct {
	Table   *storage.Table
	Stats   TableStats
	Indexes map[string]*btree.Tree // column name -> index

	// counts holds every column's value counts from the table's first
	// write on (nil before); the write hooks keep Stats current from them.
	counts []colCounts

	// dirs holds each column's directory snapshot, nil until Directory
	// builds it after the directory last changed; gens counts each
	// directory's changes. dirMu guards both: planners build snapshots
	// holding only the reader lock.
	dirMu sync.Mutex
	dirs  []*Directory
	gens  []uint64

	// id is a process-unique identifier assigned at registration. Every
	// code path that locks more than one entry acquires the locks in
	// ascending ID order (hique.DB's lock helpers), which precludes
	// deadlock against the single-table writer locks of the DML path.
	id uint64

	// mu serialises writers (DML with its statistics upkeep, index builds)
	// against concurrent readers of this entry. The planner and the
	// execution engines access Table/Stats/Indexes directly, so the
	// locking discipline lives in the callers: hique.DB and the serving
	// layer take RLock for the whole plan+execute span of a query and
	// Lock around every mutation.
	mu sync.RWMutex
}

// ID returns the entry's process-unique identifier: the global lock
// acquisition order for code paths that hold more than one table lock at
// once. Re-registering a name creates a new entry with a new (larger)
// ID.
func (e *TableEntry) ID() uint64 { return e.id }

// Lock acquires the entry's writer lock (DML, index builds).
func (e *TableEntry) Lock() { e.mu.Lock() }

// Unlock releases the writer lock.
func (e *TableEntry) Unlock() { e.mu.Unlock() }

// RLock acquires the entry's reader lock (query planning and execution).
func (e *TableEntry) RLock() { e.mu.RLock() }

// RUnlock releases the reader lock.
func (e *TableEntry) RUnlock() { e.mu.RUnlock() }

// Catalog is the system catalogue. It is safe for concurrent reads; DDL
// (Register/Drop) must not race with queries on the same table.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*TableEntry
	// versions counts changes per table name: index builds and mutating
	// statements bump only the affected name, so cached plans over other
	// tables survive a hot writer.
	versions map[string]uint64
	// epoch increases on whole-catalogue changes (table registration and
	// removal) and on explicit BumpVersion calls; it is folded into every
	// stamp, so bumping it invalidates every cached plan at once.
	epoch atomic.Uint64
}

// Version returns the catalogue-wide epoch counter.
func (c *Catalog) Version() uint64 { return c.epoch.Load() }

// BumpVersion advances the epoch, invalidating every cached plan.
func (c *Catalog) BumpVersion() uint64 { return c.epoch.Add(1) }

// BumpTableVersion records a change scoped to one table (a mutating
// statement, an index build): only cached plans referencing that name
// invalidate.
func (c *Catalog) BumpTableVersion(name string) {
	c.mu.Lock()
	c.versions[name]++
	c.mu.Unlock()
}

// StampFor derives the validation stamp for a plan referencing the given
// tables: the epoch plus the referenced tables' version counters. Every
// component is monotonic, so any relevant change strictly increases the
// stamp and a cached plan compiled under an older stamp self-invalidates.
func (c *Catalog) StampFor(names []string) uint64 {
	s := c.epoch.Load()
	c.mu.RLock()
	for _, n := range names {
		s += c.versions[n]
	}
	c.mu.RUnlock()
	return s
}

// TableVersion returns one table's change counter. Together with the
// epoch it lets a caller accumulate StampFor's sum without materialising
// a name slice: stamp = Version() + Σ TableVersion(nameᵢ). Each
// component is monotonic, so the decomposed read can only ever disagree
// with a stored stamp when something actually changed.
func (c *Catalog) TableVersion(name string) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.versions[name]
}

// New creates an empty catalogue.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*TableEntry), versions: make(map[string]uint64)}
}

// Register adds a table and computes its statistics and page bounds.
func (c *Catalog) Register(t *storage.Table) *TableEntry {
	t.Settle()
	entry := &TableEntry{
		Table:   t,
		Stats:   ComputeStats(t),
		Indexes: make(map[string]*btree.Tree),
		id:      entryIDs.Add(1),
	}
	c.mu.Lock()
	c.tables[t.Name()] = entry
	c.versions[t.Name()]++
	c.mu.Unlock()
	c.epoch.Add(1)
	return entry
}

// Lookup returns the entry for a table name.
func (c *Catalog) Lookup(name string) (*TableEntry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown table %q", name)
	}
	return e, nil
}

// Drop removes a table from the catalogue.
func (c *Catalog) Drop(name string) {
	c.mu.Lock()
	delete(c.tables, name)
	c.versions[name]++
	c.mu.Unlock()
	c.epoch.Add(1)
}

// Names returns all catalogued table names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// BuildIndex constructs a fractal B+-tree index on an Int/Date column and
// registers it under the column name.
func (c *Catalog) BuildIndex(table, column string) (*btree.Tree, error) {
	e, err := c.Lookup(table)
	if err != nil {
		return nil, err
	}
	s := e.Table.Schema()
	ci := s.ColumnIndex(column)
	if ci < 0 {
		return nil, fmt.Errorf("catalog: table %q has no column %q", table, column)
	}
	if k := s.Column(ci).Kind; k != types.Int && k != types.Date {
		return nil, fmt.Errorf("catalog: cannot index %v column %q", k, column)
	}
	tree := buildTree(e.Table, ci)
	c.mu.Lock()
	e.Indexes[column] = tree
	c.versions[table]++
	c.mu.Unlock()
	return tree, nil
}

// buildTree scans the heap and constructs a fresh index tree over column
// ci.
func buildTree(t *storage.Table, ci int) *btree.Tree {
	tree := btree.New()
	off := t.Schema().Offset(ci)
	for p := 0; p < t.NumPages(); p++ {
		page := t.Page(p)
		n := page.NumTuples()
		for i := 0; i < n; i++ {
			key := types.GetInt(page.Tuple(i), off)
			tree.Insert(key, btree.RID{Page: int32(p), Slot: int32(i)})
		}
	}
	return tree
}

// RebuildIndexes reconstructs the named indexes of a table from its
// current heap (every registered index when columns is nil). The caller
// must hold the entry's writer lock: row identifiers change whenever rows
// move (DELETE compaction) and index keys change when an UPDATE assigns
// an indexed column, so the write path rebuilds affected trees before the
// lock releases. Rebuilding does not bump the table version: the write
// that made it necessary ends with Catalog.Wrote, which bumps the version
// exactly once per statement.
func (e *TableEntry) RebuildIndexes(columns []string) {
	rebuild := func(column string) {
		ci := e.Table.Schema().ColumnIndex(column)
		if ci < 0 {
			return
		}
		e.Indexes[column] = buildTree(e.Table, ci)
	}
	if columns == nil {
		for column := range e.Indexes {
			rebuild(column)
		}
		return
	}
	for _, column := range columns {
		if _, ok := e.Indexes[column]; ok {
			rebuild(column)
		}
	}
}

// Index returns the index on the given column, if any.
func (e *TableEntry) Index(column string) *btree.Tree {
	return e.Indexes[column]
}

// IndexColumns returns the indexed column names in sorted order, so
// durability snapshots record index DDL deterministically. Callers hold
// the entry's lock (or have the catalogue to themselves, as recovery
// does).
func (e *TableEntry) IndexColumns() []string {
	cols := make([]string, 0, len(e.Indexes))
	for c := range e.Indexes {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return cols
}

// maxExactDistinct caps reported distinct-value counts: the optimizer only
// needs "small enough for a value directory" vs "large".
const maxExactDistinct = 1 << 20

// colCounts is one column's value→count map, the single structure every
// statistic of the column derives from. ComputeStats builds it, derives
// the ColumnStats and drops it; a written table keeps it (TableEntry's
// write hooks) and derives the same ColumnStats incrementally.
type colCounts struct {
	kind      types.Kind
	off, size int
	ints      map[int64]int  // Int, Date
	floats    map[uint64]int // Float, by floatKey
	strs      map[string]int // String
	// nans counts NaN floats: in a map[float64] each is a key no lookup
	// finds again, so every NaN row is a distinct value of its own.
	nans int
	// min and max bound the ints present; lost records that a removal took
	// the last row carrying one of them.
	min, max int64
	lost     bool
	// touchedI/touchedS list the directory values whose count crossed zero
	// since the last settle. rebuild abandons the list: the directory is
	// then derived from the keys afresh.
	touchedI []int64
	touchedS []string
	rebuild  bool
	// dirty records a change since the last settle.
	dirty bool
}

func newColCounts(s *types.Schema, i int) colCounts {
	c := colCounts{kind: s.Column(i).Kind, off: s.Offset(i), size: s.Column(i).Size, dirty: true}
	switch c.kind {
	case types.Int, types.Date:
		c.ints = make(map[int64]int)
	case types.Float:
		c.floats = make(map[uint64]int)
	case types.String:
		c.strs = make(map[string]int)
	}
	return c
}

// countColumn builds column i's counts from the heap.
func countColumn(t *storage.Table, i int) colCounts {
	c := newColCounts(t.Schema(), i)
	c.rebuild = true
	t.Scan(func(tuple []byte) bool {
		c.add(tuple)
		return true
	})
	return c
}

// touch records a directory value whose count crossed zero, bounded by
// the directory size: a longer list costs more than rebuilding.
func touch[T any](list []T, v T, rebuild *bool) []T {
	if *rebuild {
		return list
	}
	if len(list) == MaxDirectoryValues {
		*rebuild = true
		return list[:0]
	}
	return append(list, v)
}

func (c *colCounts) add(tuple []byte) {
	c.dirty = true
	switch c.kind {
	case types.Int, types.Date:
		v := types.GetInt(tuple, c.off)
		n := len(c.ints)
		if c.ints[v]++; len(c.ints) == n {
			return // not a new value
		}
		if n == 0 {
			c.min, c.max = v, v
		} else {
			c.min, c.max = min(c.min, v), max(c.max, v)
		}
		c.touchedI = touch(c.touchedI, v, &c.rebuild)
	case types.Float:
		if v := types.GetFloat(tuple, c.off); v != v {
			c.nans++
		} else {
			c.floats[floatKey(v)]++
		}
	case types.String:
		v := types.GetString(tuple, c.off, c.size)
		n := len(c.strs)
		if c.strs[v]++; len(c.strs) > n {
			c.touchedS = touch(c.touchedS, v, &c.rebuild)
		}
	}
}

func (c *colCounts) remove(tuple []byte) {
	c.dirty = true
	switch c.kind {
	case types.Int, types.Date:
		v := types.GetInt(tuple, c.off)
		if n := c.ints[v]; n > 1 {
			c.ints[v] = n - 1
			return
		}
		delete(c.ints, v)
		c.lost = c.lost || v == c.min || v == c.max
		c.touchedI = touch(c.touchedI, v, &c.rebuild)
	case types.Float:
		v := types.GetFloat(tuple, c.off)
		k := floatKey(v)
		switch n := c.floats[k]; {
		case v != v:
			c.nans--
		case n > 1:
			c.floats[k] = n - 1
		default:
			delete(c.floats, k)
		}
	case types.String:
		v := types.GetString(tuple, c.off, c.size)
		if n := c.strs[v]; n > 1 {
			c.strs[v] = n - 1
			return
		}
		delete(c.strs, v)
		c.touchedS = touch(c.touchedS, v, &c.rebuild)
	}
}

// floatKey is a float's map key: its bits, with -0 folded into +0 as
// float64 equality has it (and keyed on the integer fast path).
func floatKey(v float64) uint64 {
	if v == 0 {
		return 0
	}
	return math.Float64bits(v)
}

// settle derives cs from the counts: the distinct count, the value
// directory and, for Int/Date columns, the bounds. cs holds what the last
// settle derived (the zero value on a from-scratch build). It reports
// whether the directory may have gained or lost a value.
func (c *colCounts) settle(cs *ColumnStats) (changed bool) {
	if !c.dirty {
		return false
	}
	cs.DistinctValues = min(len(c.ints)+len(c.floats)+len(c.strs)+c.nans, maxExactDistinct)
	switch c.kind {
	case types.Int, types.Date:
		cs.IntValues, changed = settleDir(cs.IntValues, c.ints, c.touchedI, c.rebuild)
		if c.lost {
			c.min, c.max = bounds(cs.IntValues, c.ints)
		}
		cs.Min, cs.Max = c.min, c.max
	case types.String:
		cs.StrValues, changed = settleDir(cs.StrValues, c.strs, c.touchedS, c.rebuild)
	}
	c.touchedI, c.touchedS = c.touchedI[:0], c.touchedS[:0]
	c.rebuild, c.lost, c.dirty = false, false, false
	return changed
}

// settleDir returns the sorted distinct keys of counts — nil when there
// are none or more than MaxDirectoryValues — given dir, the directory the
// last settle derived, and touched, every value whose count crossed zero
// since. Unless rebuild is set (or dir is nil) only the touched values
// move, in place: those with no rows left are dropped, the new ones
// merged in. It reports whether the directory changed; a rebuild counts
// as a change.
func settleDir[T cmp.Ordered](dir []T, counts map[T]int, touched []T, rebuild bool) ([]T, bool) {
	if len(counts) == 0 || len(counts) > MaxDirectoryValues {
		return nil, dir != nil
	}
	if dir == nil || rebuild {
		keys := make([]T, 0, len(counts))
		for v := range counts {
			keys = append(keys, v)
		}
		slices.Sort(keys)
		return keys, true
	}
	if len(touched) == 0 {
		return dir, false
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)
	// Drop, compacting from the first touched position.
	w, _ := slices.BinarySearch(dir, touched[0])
	j := 0
	for _, v := range dir[w:] {
		for j < len(touched) && touched[j] < v {
			j++
		}
		if j < len(touched) && touched[j] == v {
			if _, ok := counts[v]; !ok {
				continue
			}
		}
		dir[w] = v
		w++
	}
	dropped := w < len(dir)
	dir = dir[:w]
	// Add: the touched values present but not yet in the directory, merged
	// from the back so values past the current end cost nothing more.
	add := touched[:0]
	for _, v := range touched {
		if _, ok := counts[v]; ok {
			if _, had := slices.BinarySearch(dir, v); !had {
				add = append(add, v)
			}
		}
	}
	n := len(dir)
	dir = slices.Grow(dir, len(add))[:n+len(add)]
	for i, j, w := n-1, len(add)-1, len(dir)-1; j >= 0; w-- {
		if i >= 0 && dir[i] > add[j] {
			dir[w] = dir[i]
			i--
		} else {
			dir[w] = add[j]
			j--
		}
	}
	return dir, dropped || len(add) > 0
}

// bounds returns the least and greatest key, 0 and 0 when there is none.
func bounds(dir []int64, counts map[int64]int) (lo, hi int64) {
	if len(dir) > 0 {
		return dir[0], dir[len(dir)-1]
	}
	first := true
	for v := range counts {
		if first {
			lo, hi, first = v, v, false
		}
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

// ComputeStats scans a table and derives its statistics, one column at a
// time: build the column's counts, derive its ColumnStats, drop them.
func ComputeStats(t *storage.Table) TableStats {
	stats := TableStats{Rows: t.NumRows(), Columns: make([]ColumnStats, t.Schema().NumColumns())}
	for i := range stats.Columns {
		c := countColumn(t, i)
		c.settle(&stats.Columns[i])
	}
	return stats
}

// The write hooks below keep Stats current as the heap changes; callers
// hold the entry's writer lock. A mutating statement reports each tuple
// it appends (after writing it), each it deletes or overwrites in place
// (before), or the whole heap emptied, and then calls Catalog.Wrote once.
// The first hook a table sees counts the heap as it stands: a table that
// is never written never holds counts.

// Added records a tuple just written to the heap.
func (e *TableEntry) Added(tuple []byte) {
	if e.counts == nil {
		e.countHeap() // the heap already holds tuple
		return
	}
	for i := range e.counts {
		e.counts[i].add(tuple)
	}
}

// Removed records a tuple about to leave the heap or be overwritten.
func (e *TableEntry) Removed(tuple []byte) {
	if e.counts == nil {
		e.countHeap() // the heap still holds tuple
	}
	for i := range e.counts {
		e.counts[i].remove(tuple)
	}
}

// Cleared records that every row left the heap.
func (e *TableEntry) Cleared() {
	s := e.Table.Schema()
	e.counts = make([]colCounts, s.NumColumns())
	for i := range e.counts {
		e.counts[i] = newColCounts(s, i)
	}
}

func (e *TableEntry) countHeap() {
	e.counts = make([]colCounts, e.Table.Schema().NumColumns())
	for i := range e.counts {
		e.counts[i] = countColumn(e.Table, i)
	}
}

// Recount rebuilds the entry's statistics and every page's bounds from
// the heap and drops its counts, under the writer lock: the repair after a
// write was cut short with heap and counts out of step.
func (e *TableEntry) Recount() {
	e.counts = nil
	e.Stats = ComputeStats(e.Table)
	e.Table.Rewrite(0)
	e.Table.Settle()
	for i := range e.Stats.Columns {
		e.dirChanged(i)
	}
}

// Wrote ends a mutating statement on e, whose writer lock the caller
// holds: it derives e's statistics from the counts the statement's hooks
// adjusted (a directory that gained or lost a value drops its snapshot
// and moves to a new generation), recomputes the bounds of the pages
// from the lowest one the statement touched (storage.Table.Settle), and
// bumps the table's version once, so every cached plan built from the
// old statistics invalidates.
func (c *Catalog) Wrote(e *TableEntry) {
	e.Stats.Rows = e.Table.NumRows()
	for i := range e.counts {
		if e.counts[i].settle(&e.Stats.Columns[i]) {
			e.dirChanged(i)
		}
	}
	e.Table.Settle()
	c.BumpTableVersion(e.Table.Name())
}

// CheckStats compares every table's statistics with ComputeStats over its
// heap, and the bounds of every settled page with a recompute over the
// page, and reports the first difference. It takes no locks: call it on a
// catalogue no writer is using (tests do, after statements and after
// recovery).
func (c *Catalog) CheckStats() error {
	for _, name := range c.Names() {
		e, err := c.Lookup(name)
		if err != nil {
			continue
		}
		want := ComputeStats(e.Table)
		if e.Stats.Rows != want.Rows {
			return fmt.Errorf("catalog: %s: kept %d rows, the heap holds %d", name, e.Stats.Rows, want.Rows)
		}
		for i := range want.Columns {
			if got := e.Stats.Columns[i]; !reflect.DeepEqual(got, want.Columns[i]) {
				return fmt.Errorf("catalog: %s column %d: kept %s, the heap gives %s", name, i, describe(got), describe(want.Columns[i]))
			}
		}
		if err := e.Table.CheckBounds(); err != nil {
			return err
		}
	}
	return nil
}

// describe summarises column statistics, directories by size.
func describe(cs ColumnStats) string {
	return fmt.Sprintf("{distinct %d, min %d, max %d, %d ints (nil %t), %d strings (nil %t)}",
		cs.DistinctValues, cs.Min, cs.Max, len(cs.IntValues), cs.IntValues == nil, len(cs.StrValues), cs.StrValues == nil)
}
