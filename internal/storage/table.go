package storage

import (
	"fmt"

	"hique/internal/types"
)

// Table is an NSM heap table: a schema plus an ordered list of pages. Tables
// are the unit both of base storage and of staged/materialised intermediate
// results (paper §V-C: "operators are connected by materializing intermediate
// results as temporary tables inside the buffer pool").
type Table struct {
	name   string
	schema *types.Schema
	pages  []*Page
	rows   int
	// version counts mutations (appends, truncations, and explicitly
	// recorded in-place updates), letting engines that cache derived
	// representations of the heap revalidate them. See Version.
	version uint64
	// pooled marks tables created by NewPooledTable: their pages come
	// from the page arena and return to it on Release.
	pooled bool
	// The other tables cut their pages from extents: ext is the unused
	// tail of the current one, and spare holds the frames Compact cut,
	// reused before ext, the lowest address last.
	ext   []byte
	spare []*Page

	// settled is the settle mark: the pages before it carry exact bounds
	// in bounds, 2 int64 per Int/Date column (boundOffs) per page. See
	// bounds.go.
	settled   int
	bounds    []int64
	boundOffs []int
}

// NewTable creates an empty heap table.
func NewTable(name string, schema *types.Schema) *Table {
	return &Table{name: name, schema: schema}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *types.Schema { return t.schema }

// NumPages returns the number of pages in the heap.
func (t *Table) NumPages() int { return len(t.pages) }

// NumRows returns the total tuple count.
func (t *Table) NumRows() int { return t.rows }

// Page returns the i-th page.
func (t *Table) Page(i int) *Page { return t.pages[i] }

// touch lowers the settle mark to page pi, whose tuples are changing.
func (t *Table) touch(pi int) {
	if pi < t.settled {
		t.settled = pi
	}
}

// lastPage returns the final page, appending a fresh one if the heap is
// empty or the final page is full, and lowers the settle mark to it: the
// caller is about to write a tuple there.
func (t *Table) lastPage() *Page {
	if n := len(t.pages); n > 0 && !t.pages[n-1].Full() {
		t.touch(n - 1)
		return t.pages[n-1]
	}
	var p *Page
	switch n := len(t.spare); {
	case t.pooled:
		p = pooledFrame()
	case n > 0:
		p, t.spare = t.spare[n-1], t.spare[:n-1]
	default:
		if len(t.ext) == 0 {
			t.ext = make([]byte, min(maxExtentPages, max(1, len(t.pages)))*PageSize)
		}
		p = &Page{buf: frame(t.ext, 0)}
		t.ext = t.ext[PageSize:]
	}
	p.init(t.schema.TupleSize(), len(t.pages))
	t.pages = append(t.pages, p)
	return p
}

// maxExtentPages caps an extent. A table's extents grow with it, each as
// many pages as the table holds, so a scan streams through runs of
// adjacent pages while a one-row table still costs one page.
const maxExtentPages = 64

// Version returns the table's mutation counter. It advances on every
// append, compaction and truncate, and on Rewrite for in-place page
// mutations, so a cached derived form of the heap (e.g. the DSM engine's
// vertical decomposition) is valid exactly while the version it was built
// at still matches. Readers observe it under the same table lock that orders the
// mutations themselves.
func (t *Table) Version() uint64 { return t.version }

// Rewrite records that the caller is about to overwrite tuples in place
// from page first on (the SQL UPDATE path writes fields in place): it
// advances the version, invalidating cached derived forms, and lowers the
// settle mark to first. Call it under the writer lock before the batch's
// first write, so a batch cut short by a panic is covered too.
func (t *Table) Rewrite(first int) {
	t.version++
	t.touch(first)
}

// Append adds a tuple (raw bytes of schema width) to the table.
func (t *Table) Append(tuple []byte) {
	if !t.lastPage().Append(tuple) {
		panic("storage.Table.Append: fresh page rejected tuple")
	}
	t.rows++
	t.version++
}

// AppendRow encodes and appends a row of datums.
func (t *Table) AppendRow(row ...types.Datum) {
	t.Append(t.schema.EncodeRow(row...))
}

// AppendSlot reserves the next tuple slot and returns it for the caller
// to fill in place — the zero-copy variant of Append the generated fused
// pipelines use. The caller must overwrite every byte of the slot: on
// pooled tables the backing frame carries a previous user's bytes.
func (t *Table) AppendSlot() []byte {
	p := t.lastPage()
	ts := p.TupleSize()
	n := p.NumTuples()
	off := HeaderSize + n*ts
	p.setNumTuples(n + 1)
	t.rows++
	t.version++
	return p.buf[off : off+ts : off+ts]
}

// AppendSlots is AppendSlot for a batch: it reserves as many of the next
// n slots as the final page holds, at least one, and returns them —
// contiguous, the caller to fill every byte — with their count.
func (t *Table) AppendSlots(n int) ([]byte, int) {
	p := t.lastPage()
	ts := p.TupleSize()
	have := p.NumTuples()
	k := min(n, p.Capacity()-have)
	off := HeaderSize + have*ts
	p.setNumTuples(have + k)
	t.rows += k
	t.version += uint64(k)
	return p.buf[off : off+k*ts : off+k*ts], k
}

// Tuple returns the raw bytes of global row r (scanning page by page).
// Intended for tests and small results, not inner loops.
func (t *Table) Tuple(r int) []byte {
	for _, p := range t.pages {
		if r < p.NumTuples() {
			return p.Tuple(r)
		}
		r -= p.NumTuples()
	}
	panic(fmt.Sprintf("storage.Table.Tuple: row %d out of range", r))
}

// Scan invokes fn for every tuple in heap order. The tuple slice aliases
// page memory. fn returning false stops the scan.
func (t *Table) Scan(fn func(tuple []byte) bool) {
	for _, p := range t.pages {
		n := p.NumTuples()
		ts := p.TupleSize()
		data := p.Data()
		for i := 0; i < n; i++ {
			if !fn(data[i*ts : i*ts+ts]) {
				return
			}
		}
	}
}

// Rows decodes every tuple into boxed datums; intended for tests and result
// presentation.
func (t *Table) Rows() [][]types.Datum {
	out := make([][]types.Datum, 0, t.rows)
	t.Scan(func(tuple []byte) bool {
		out = append(out, t.schema.DecodeRow(tuple))
		return true
	})
	return out
}

// Truncate removes all tuples but keeps the schema; the pages, extent
// and spare frames are dropped with them.
func (t *Table) Truncate() {
	t.pages, t.ext, t.spare = nil, nil, nil
	t.rows = 0
	t.version++
	t.touch(0)
}

// Compact removes the tuples drop accepts, sliding each later survivor
// down over them in heap order, and cuts the emptied tail of pages; it
// returns how many it removed. skip, called once per page before any of
// its tuples moves, excludes whole pages: drop never sees their tuples,
// and all of them survive. drop sees every tuple of every other page, in
// order, before anything overwrites it. Tuples before the first removal
// stay where they are, so removing recently appended rows moves nothing
// and a skipped page before it is not even read; a page after it slides
// down with the survivors, skipped or not. The settle mark drops to the
// page of the first removal. The cut frames become spares the next
// appends reuse, so the table keeps its high-water mark of frames until
// Truncate (a pooled table keeps no spares: its frames are the arena's).
func (t *Table) Compact(skip func(page int) bool, drop func(tuple []byte) bool) int {
	removed, first := 0, 0
	wp, ws := 0, 0 // the slot the next survivor moves to
	for pi, p := range t.pages {
		keepAll := skip(pi)
		if keepAll && removed == 0 {
			continue
		}
		n, ts, data := p.NumTuples(), p.TupleSize(), p.Data()
		for i := 0; i < n; i++ {
			tuple := data[i*ts : i*ts+ts]
			if !keepAll && drop(tuple) {
				if removed == 0 {
					first, wp, ws = pi, pi, i
				}
				removed++
				continue
			}
			if removed == 0 {
				continue
			}
			// The write cursor trails the read position, so this never
			// overwrites a tuple drop has not seen.
			dst := t.pages[wp]
			copy(dst.Data()[ws*ts:ws*ts+ts], tuple)
			if ws++; ws == dst.Capacity() {
				dst.setNumTuples(ws)
				wp, ws = wp+1, 0
			}
		}
	}
	if removed == 0 {
		return 0
	}
	keep := wp
	if ws > 0 {
		t.pages[wp].setNumTuples(ws)
		keep++
	}
	if !t.pooled {
		for i := len(t.pages) - 1; i >= keep; i-- {
			t.spare = append(t.spare, t.pages[i])
		}
	}
	clear(t.pages[keep:])
	t.pages = t.pages[:keep]
	t.rows -= removed
	t.version++
	t.touch(first)
	return removed
}
