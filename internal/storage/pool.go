package storage

import (
	"sync"
	"sync/atomic"

	"hique/internal/types"
)

// The page arena is a process-wide sync.Pool of page frames backing the
// transient tables of query execution: staged intermediates, index-scan
// fetches, and materialised results. The paper assumes these costs are
// amortised ("intermediate results are materialised inside the buffer
// pool", §V-C) — on a warm serving path the arena makes that true: a
// repeated query reuses the frames the previous execution returned
// instead of allocating fresh 4096-byte pages every run. Arena frames
// stay single 4 KB allocations, not extents: a frame returns to the pool
// on its own, and a pooled table's pages come from whatever frames the
// pool holds. Base tables take theirs from extents (Table.lastPage).
//
// Accounting is shared with internal/buffer (Pool.Usage reports the
// arena counters next to the frame-pool hit/miss counters): arenaGets -
// arenaPuts is the number of frames currently held by live pooled
// tables, so a serving path that releases everything it acquires drives
// the balance back to zero — the invariant the pool-leak test asserts.

var (
	pagePool  = sync.Pool{New: func() any { return &Page{buf: make([]byte, PageSize)} }}
	tablePool = sync.Pool{New: func() any { return new(Table) }}

	arenaGets atomic.Int64
	arenaPuts atomic.Int64
)

// ArenaStats reports the page arena balance: inUse is the number of
// frames currently held by pooled tables (gets minus puts), recycled the
// cumulative number of frames returned for reuse.
func ArenaStats() (inUse, recycled int64) {
	puts := arenaPuts.Load()
	return arenaGets.Load() - puts, puts
}

// pooledFrame draws a page frame from the arena. The tuple area keeps
// whatever bytes the previous user wrote; the caller re-initialises the
// header (Page.init).
func pooledFrame() *Page {
	arenaGets.Add(1)
	return pagePool.Get().(*Page)
}

// NewPooledTable creates an empty heap table whose pages come from the
// page arena. The caller owns the table: when it is no longer referenced,
// Release must be called exactly once to return the frames; dropping a
// pooled table without Release is safe (the GC reclaims it) but leaks the
// frames out of the arena accounting.
func NewPooledTable(name string, schema *types.Schema) *Table {
	t := tablePool.Get().(*Table)
	t.name = name
	t.schema = schema
	t.pooled = true
	return t
}

// Release returns a pooled table's frames to the arena and the table
// struct itself to its pool. It is a no-op on tables not created by
// NewPooledTable, so callers may release unconditionally; the tuples must
// not be referenced afterwards — the frames are recycled into other
// tables. Release must not be called twice for the same acquisition.
func (t *Table) Release() {
	if t == nil || !t.pooled {
		return
	}
	t.pooled = false
	for i, p := range t.pages {
		pagePool.Put(p)
		t.pages[i] = nil
	}
	arenaPuts.Add(int64(len(t.pages)))
	t.pages = t.pages[:0]
	t.rows = 0
	t.name = ""
	t.schema = nil
	tablePool.Put(t)
}

// Pooled reports whether the table draws its pages from the arena (and
// therefore must eventually be Released by its owner).
func (t *Table) Pooled() bool { return t.pooled }
