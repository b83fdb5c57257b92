package storage

import (
	"fmt"
	"math"
	"slices"

	"hique/internal/types"
)

// Page bounds are the small materialised aggregates of a heap (Moerkotte,
// VLDB 1998): for every page, the exact least and greatest value of each
// Int/Date column. A scan whose predicates exclude a page's [min, max]
// skips the page without reading a tuple.
//
// The bounds cover the pages before the settle mark. Every mutation lowers
// the mark to the first page it touched (Append and AppendSlot to the page
// they fill, Compact to its first removal, Truncate to 0, Rewrite to the
// page it names), and Settle recomputes the bounds from the mark on. A page
// at or past the mark has no bounds and is never skipped, so a table whose
// owner has not settled it yet — or never will, like every intermediate —
// is simply read in full. The owner (the catalogue, for base tables)
// settles under the writer lock that orders the mutations; readers read
// bounds under the reader lock.

// BoundSlot returns column col's position among the schema's Int/Date
// columns, the column's slot in a page's bounds, or -1 when the column
// keeps no bounds.
func BoundSlot(s *types.Schema, col int) int {
	if k := s.Column(col).Kind; k != types.Int && k != types.Date {
		return -1
	}
	slot := 0
	for i := 0; i < col; i++ {
		if k := s.Column(i).Kind; k == types.Int || k == types.Date {
			slot++
		}
	}
	return slot
}

// boundOffsets lists the tuple offsets of the schema's Int/Date columns in
// slot order.
func boundOffsets(s *types.Schema) []int {
	var offs []int
	for i := 0; i < s.NumColumns(); i++ {
		if k := s.Column(i).Kind; k == types.Int || k == types.Date {
			offs = append(offs, s.Offset(i))
		}
	}
	return offs
}

// PageBounds returns page pi's bounds — slot k's least value at 2k, its
// greatest at 2k+1 — or nil when the page is at or past the settle mark.
// An empty page's bounds are inverted (least MaxInt64, greatest MinInt64),
// so every range excludes it.
func (t *Table) PageBounds(pi int) []int64 {
	if pi >= t.settled {
		return nil
	}
	w := 2 * len(t.boundOffs)
	return t.bounds[pi*w : pi*w+w : pi*w+w]
}

// Settle recomputes the bounds of every page from the settle mark on and
// moves the mark past the last page: afterwards every page's bounds are
// exact. Call it under the writer lock, after the mutations it covers.
func (t *Table) Settle() {
	if t.boundOffs == nil {
		t.boundOffs = boundOffsets(t.schema)
	}
	w := 2 * len(t.boundOffs)
	n := len(t.pages)
	from := min(t.settled, n)
	bounds := slices.Grow(t.bounds[:from*w], (n-from)*w)[:n*w]
	for pi := from; pi < n; pi++ {
		pageBounds(t.pages[pi], t.boundOffs, bounds[pi*w:pi*w+w])
	}
	t.bounds, t.settled = bounds, n
}

// pageBounds computes one page's bounds into dst.
func pageBounds(p *Page, offs []int, dst []int64) {
	n, ts, data := p.NumTuples(), p.TupleSize(), p.Data()
	for k, off := range offs {
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for i, base := 0, off; i < n; i, base = i+1, base+ts {
			v := types.GetInt(data, base)
			lo, hi = min(lo, v), max(hi, v)
		}
		dst[2*k], dst[2*k+1] = lo, hi
	}
}

// CheckBounds compares the bounds of every page before the settle mark with
// a recompute over its tuples and reports the first difference.
func (t *Table) CheckBounds() error {
	if t.settled > len(t.pages) {
		return fmt.Errorf("storage: %s: settle mark %d past the %d pages", t.name, t.settled, len(t.pages))
	}
	offs := boundOffsets(t.schema)
	want := make([]int64, 2*len(offs))
	for pi := 0; pi < t.settled; pi++ {
		pageBounds(t.pages[pi], offs, want)
		got := t.PageBounds(pi)
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("storage: %s page %d slot %d: kept bounds [%d, %d], the page gives [%d, %d]",
					t.name, pi, i/2, got[i&^1], got[i|1], want[i&^1], want[i|1])
			}
		}
	}
	return nil
}
