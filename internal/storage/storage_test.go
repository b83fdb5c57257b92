package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"hique/internal/types"
)

func testSchema() *types.Schema {
	return types.NewSchema(types.Col("id", types.Int), types.Col("v", types.Float), types.CharCol("s", 12))
}

func TestPageAppendAndRead(t *testing.T) {
	s := testSchema()
	p := NewPage(s.TupleSize())
	if p.NumTuples() != 0 {
		t.Fatalf("fresh page has %d tuples", p.NumTuples())
	}
	wantCap := (PageSize - HeaderSize) / s.TupleSize()
	if p.Capacity() != wantCap {
		t.Fatalf("Capacity = %d, want %d", p.Capacity(), wantCap)
	}
	for i := 0; i < wantCap; i++ {
		ok := p.Append(s.EncodeRow(types.IntDatum(int64(i)), types.FloatDatum(float64(i)/2), types.StringDatum(fmt.Sprintf("s%d", i))))
		if !ok {
			t.Fatalf("Append %d failed below capacity", i)
		}
	}
	if !p.Full() {
		t.Error("page should be full")
	}
	if p.Append(make([]byte, s.TupleSize())) {
		t.Error("Append succeeded on full page")
	}
	for i := 0; i < wantCap; i++ {
		row := s.DecodeRow(p.Tuple(i))
		if row[0].I != int64(i) {
			t.Fatalf("tuple %d: id = %d", i, row[0].I)
		}
	}
}

func TestPageReset(t *testing.T) {
	p := NewPage(8)
	p.Append(make([]byte, 8))
	p.Reset()
	if p.NumTuples() != 0 {
		t.Errorf("after Reset NumTuples = %d", p.NumTuples())
	}
	if p.TupleSize() != 8 {
		t.Errorf("Reset clobbered tuple size: %d", p.TupleSize())
	}
}

func TestTableAppendSpansPages(t *testing.T) {
	s := testSchema()
	tbl := NewTable("t", s)
	const n = 1000
	for i := 0; i < n; i++ {
		tbl.AppendRow(types.IntDatum(int64(i)), types.FloatDatum(1.0), types.StringDatum("x"))
	}
	if tbl.NumRows() != n {
		t.Fatalf("NumRows = %d, want %d", tbl.NumRows(), n)
	}
	perPage := (PageSize - HeaderSize) / s.TupleSize()
	wantPages := (n + perPage - 1) / perPage
	if tbl.NumPages() != wantPages {
		t.Fatalf("NumPages = %d, want %d", tbl.NumPages(), wantPages)
	}
	// Scan order must be insertion order.
	i := 0
	tbl.Scan(func(tuple []byte) bool {
		if got := types.GetInt(tuple, 0); got != int64(i) {
			t.Fatalf("scan row %d: id = %d", i, got)
		}
		i++
		return true
	})
	if i != n {
		t.Fatalf("scan visited %d rows, want %d", i, n)
	}
	// Early-exit scan.
	count := 0
	tbl.Scan(func([]byte) bool { count++; return count < 10 })
	if count != 10 {
		t.Errorf("early-exit scan visited %d rows, want 10", count)
	}
}

func TestTableTupleByIndex(t *testing.T) {
	s := testSchema()
	tbl := NewTable("t", s)
	for i := 0; i < 500; i++ {
		tbl.AppendRow(types.IntDatum(int64(i*7)), types.FloatDatum(0), types.StringDatum(""))
	}
	for _, r := range []int{0, 1, 250, 499} {
		if got := types.GetInt(tbl.Tuple(r), 0); got != int64(r*7) {
			t.Errorf("Tuple(%d) id = %d, want %d", r, got, r*7)
		}
	}
}

func TestTruncate(t *testing.T) {
	tbl := NewTable("t", testSchema())
	tbl.AppendRow(types.IntDatum(1), types.FloatDatum(2), types.StringDatum("a"))
	tbl.Truncate()
	if tbl.NumRows() != 0 || tbl.NumPages() != 0 {
		t.Errorf("Truncate left %d rows, %d pages", tbl.NumRows(), tbl.NumPages())
	}
}

// TestCompact: survivors keep heap order, every page but the last ends
// full, drop sees each tuple of every page skip does not exclude once and
// in order, a skipped page survives whole — before the first removal in
// place, after it sliding down — and a heap whose middle page is short of
// capacity compacts just as well. The settle mark drops to the page of
// the first removal.
func TestCompact(t *testing.T) {
	s := testSchema()
	perPage := (PageSize - HeaderSize) / s.TupleSize()
	const n = 1000
	pages := (n + perPage - 1) / perPage
	noSkip := func(int) bool { return false }
	for _, c := range []struct {
		name  string
		skip  func(page int) bool
		drop  func(id int64) bool
		short bool // page 0 holds three tuples fewer than it could
	}{
		{"none", noSkip, func(int64) bool { return false }, false},
		{"first", noSkip, func(id int64) bool { return id == 0 }, false},
		{"last", noSkip, func(id int64) bool { return id == n-1 }, false},
		{"every third", noSkip, func(id int64) bool { return id%3 == 0 }, false},
		{"tail", noSkip, func(id int64) bool { return id >= n-40 }, false},
		{"head", noSkip, func(id int64) bool { return id < int64(perPage)+5 }, false},
		{"all", noSkip, func(int64) bool { return true }, false},
		{"every fifth past a short page", noSkip, func(id int64) bool { return id%5 == 1 }, true},
		{"skipped pages before the first removal", func(p int) bool { return p < 3 },
			func(id int64) bool { return id%7 == 0 }, false},
		{"skipped pages after the first removal slide", func(p int) bool { return p == 2 || p == 4 },
			func(id int64) bool { return id%4 == 0 }, false},
		{"a skipped page drop would empty survives", func(p int) bool { return p == 1 },
			func(int64) bool { return true }, false},
		{"emptied tail behind skipped pages", func(p int) bool { return p < pages-2 },
			func(int64) bool { return true }, false},
		{"every page skipped", func(int) bool { return true }, func(int64) bool { return true }, false},
		{"skips past a short page", func(p int) bool { return p%2 == 1 },
			func(id int64) bool { return id%3 == 2 }, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			tbl := NewTable("t", s)
			for i := 0; i < n; i++ {
				tbl.AppendRow(types.IntDatum(int64(i)), types.FloatDatum(float64(i)), types.StringDatum(fmt.Sprint(i)))
			}
			if c.short {
				tbl.pages[0].setNumTuples(perPage - 3)
				tbl.rows -= 3
			}
			tbl.Settle()
			var want, seen, wantSeen []int64
			first := -1 // the page of the first removal
			for pi := 0; pi < tbl.NumPages(); pi++ {
				pg := tbl.Page(pi)
				for i := 0; i < pg.NumTuples(); i++ {
					id := types.GetInt(pg.Tuple(i), 0)
					if c.skip(pi) {
						want = append(want, id)
						continue
					}
					wantSeen = append(wantSeen, id)
					if !c.drop(id) {
						want = append(want, id)
					} else if first < 0 {
						first = pi
					}
				}
			}
			v0, before := tbl.Version(), tbl.NumRows()
			lastSkip := -1
			removed := tbl.Compact(func(p int) bool {
				if p <= lastSkip {
					t.Fatalf("skip asked about page %d after page %d", p, lastSkip)
				}
				lastSkip = p
				return c.skip(p)
			}, func(tuple []byte) bool {
				id := types.GetInt(tuple, 0)
				seen = append(seen, id)
				return c.drop(id)
			})
			if fmt.Sprint(seen) != fmt.Sprint(wantSeen) {
				t.Fatalf("drop saw %v\nwant %v", seen, wantSeen)
			}
			if tbl.NumRows() != len(want) || removed != before-len(want) {
				t.Fatalf("NumRows = %d, removed %d, want %d rows", tbl.NumRows(), removed, len(want))
			}
			if (removed > 0) != (tbl.Version() != v0) {
				t.Fatalf("removed %d, version %d -> %d", removed, v0, tbl.Version())
			}
			var got []int64
			tbl.Scan(func(tuple []byte) bool {
				got = append(got, types.GetInt(tuple, 0))
				if str := types.GetString(tuple, s.Offset(2), 12); str != fmt.Sprint(got[len(got)-1]) {
					t.Fatalf("row %d carries string %q", got[len(got)-1], str)
				}
				return true
			})
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("survivors %v\nwant %v", got, want)
			}
			if removed == 0 {
				if tbl.NumPages() > 0 && tbl.PageBounds(tbl.NumPages()-1) == nil {
					t.Fatal("a compaction that removed nothing lowered the settle mark")
				}
				return
			}
			if first > 0 && tbl.PageBounds(first-1) == nil {
				t.Fatalf("page %d, before the first removal, lost its bounds", first-1)
			}
			if first < tbl.NumPages() && tbl.PageBounds(first) != nil {
				t.Fatalf("page %d, the first removal's, kept its bounds", first)
			}
			for i := 0; i < tbl.NumPages(); i++ {
				if p := tbl.Page(i); p.NumTuples() == 0 || (i < tbl.NumPages()-1 && !p.Full() && !(c.short && i == 0 && i < first)) {
					t.Fatalf("page %d of %d holds %d of %d tuples", i, tbl.NumPages(), p.NumTuples(), p.Capacity())
				}
			}
		})
	}
}

// TestSettleMarks: Settle computes exact per-page bounds of the Int/Date
// columns only, and every mutation lowers the settle mark to the first
// page it touched, so that page and every later one lose their bounds
// until the next Settle.
func TestSettleMarks(t *testing.T) {
	s := types.NewSchema(types.Col("id", types.Int), types.Col("v", types.Float), types.Col("day", types.Date))
	if BoundSlot(s, 0) != 0 || BoundSlot(s, 1) != -1 || BoundSlot(s, 2) != 1 {
		t.Fatalf("bound slots %d %d %d", BoundSlot(s, 0), BoundSlot(s, 1), BoundSlot(s, 2))
	}
	tbl := NewTable("t", s)
	perPage := (PageSize - HeaderSize) / s.TupleSize()
	for i := 0; i < 3*perPage+5; i++ {
		tbl.AppendRow(types.IntDatum(int64(i)), types.FloatDatum(0), types.DateDatum(int64(-i)))
	}
	if tbl.PageBounds(0) != nil {
		t.Fatal("a table never settled has bounds")
	}
	tbl.Settle()
	for pi := 0; pi < tbl.NumPages(); pi++ {
		lo, hi := int64(pi*perPage), int64(min((pi+1)*perPage, tbl.NumRows())-1)
		if got, want := fmt.Sprint(tbl.PageBounds(pi)), fmt.Sprint([]int64{lo, hi, -hi, -lo}); got != want {
			t.Fatalf("page %d bounds %s, want %s", pi, got, want)
		}
	}
	settled := func(want int) {
		t.Helper()
		for pi := 0; pi < tbl.NumPages(); pi++ {
			if has := tbl.PageBounds(pi) != nil; has != (pi < want) {
				t.Fatalf("page %d has bounds %t with the mark at %d", pi, has, want)
			}
		}
		if err := tbl.CheckBounds(); err != nil {
			t.Fatal(err)
		}
	}
	settled(4)
	tbl.AppendRow(types.IntDatum(-7), types.FloatDatum(0), types.DateDatum(0))
	settled(3)
	tbl.Settle()
	if b := tbl.PageBounds(3); b[0] != -7 {
		t.Fatalf("page 3 bounds %v after an append of -7", b)
	}
	tbl.Rewrite(1)
	settled(1)
	tbl.Settle()
	tbl.Page(2).setNumTuples(0)
	tbl.Rewrite(2)
	tbl.Settle()
	if b := tbl.PageBounds(2); b[0] <= b[1] {
		t.Fatalf("an empty page's bounds %v admit a value", b)
	}
	tbl.Truncate()
	settled(0)
	tbl.Settle()
	settled(0)
}

func TestManagerSaveLoadRoundTrip(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := testSchema()
	tbl := NewTable("roundtrip", s)
	for i := 0; i < 700; i++ {
		tbl.AppendRow(types.IntDatum(int64(i)), types.FloatDatum(float64(i)*1.5), types.StringDatum(fmt.Sprintf("row%d", i)))
	}
	if err := m.Save(tbl); err != nil {
		t.Fatal(err)
	}
	got, err := m.Load("roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != tbl.NumRows() {
		t.Fatalf("loaded %d rows, want %d", got.NumRows(), tbl.NumRows())
	}
	if got.Schema().String() != s.String() {
		t.Fatalf("loaded schema %s, want %s", got.Schema(), s)
	}
	want := tbl.Rows()
	rows := got.Rows()
	for i := range want {
		for j := range want[i] {
			if !types.Equal(want[i][j], rows[i][j]) {
				t.Fatalf("row %d col %d: got %v, want %v", i, j, rows[i][j], want[i][j])
			}
		}
	}
}

func TestManagerListAndDrop(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alpha", "beta"} {
		tbl := NewTable(name, testSchema())
		tbl.AppendRow(types.IntDatum(1), types.FloatDatum(1), types.StringDatum("a"))
		if err := m.Save(tbl); err != nil {
			t.Fatal(err)
		}
	}
	names, err := m.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("List = %v, want 2 names", names)
	}
	if err := m.Drop("alpha"); err != nil {
		t.Fatal(err)
	}
	names, _ = m.List()
	if len(names) != 1 || names[0] != "beta" {
		t.Fatalf("after Drop, List = %v", names)
	}
	if _, err := m.Load("alpha"); err == nil {
		t.Error("Load of dropped table should fail")
	}
}

func TestSaveLoadQuick(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := types.NewSchema(types.Col("k", types.Int), types.Col("v", types.Int))
	f := func(vals []int64) bool {
		tbl := NewTable("q", s)
		for i, v := range vals {
			tbl.AppendRow(types.IntDatum(int64(i)), types.IntDatum(v))
		}
		if err := m.Save(tbl); err != nil {
			return false
		}
		got, err := m.Load("q")
		if err != nil || got.NumRows() != len(vals) {
			return false
		}
		ok := true
		i := 0
		got.Scan(func(tuple []byte) bool {
			if types.GetInt(tuple, 8) != vals[i] {
				ok = false
				return false
			}
			i++
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// fillPages appends rows of the test schema until tbl holds n pages.
func fillPages(tbl *Table, n int) {
	tuple := make([]byte, tbl.Schema().TupleSize())
	for i := 0; tbl.NumPages() < n || !tbl.Page(n-1).Full(); i++ {
		types.PutInt(tuple, 0, int64(i))
		tbl.Append(tuple)
	}
}

// start is the address of page p's first byte.
func start(p *Page) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(p.Bytes()))) }

// TestExtentLayout: a table cuts its pages from extents as large as the
// table, capped at maxExtentPages, so consecutive pages of one extent are
// adjacent in memory; no page reaches past its 4 KB.
func TestExtentLayout(t *testing.T) {
	tbl := NewTable("t", testSchema())
	const n = 300
	tuple := make([]byte, tbl.Schema().TupleSize())
	var starts []int // the first page of each extent
	for tbl.NumPages() < n {
		fresh := len(tbl.ext) == 0 && len(tbl.spare) == 0
		before := tbl.NumPages()
		tbl.Append(tuple)
		if tbl.NumPages() == before {
			continue
		}
		if fresh {
			if got, want := len(tbl.ext)/PageSize+1, min(maxExtentPages, max(1, before)); got != want {
				t.Fatalf("page %d: extent of %d pages, want %d", before, got, want)
			}
			starts = append(starts, before)
		}
	}
	if want := []int{0, 1, 2, 4, 8, 16, 32, 64, 128, 192, 256}; !slices.Equal(starts, want) {
		t.Fatalf("extents start at pages %v, want %v", starts, want)
	}
	for i := 0; i < n; i++ {
		p := tbl.Page(i)
		if len(p.Bytes()) != PageSize || cap(p.Bytes()) != PageSize {
			t.Fatalf("page %d: len %d cap %d, want %d", i, len(p.Bytes()), cap(p.Bytes()), PageSize)
		}
		if i+1 < n && !slices.Contains(starts, i+1) && start(tbl.Page(i+1)) != start(p)+PageSize {
			t.Errorf("pages %d and %d of one extent are not adjacent", i, i+1)
		}
	}

	one := NewTable("one", testSchema())
	one.Append(tuple)
	if one.NumPages() != 1 || len(one.ext) != 0 {
		t.Errorf("a one-row table holds %d pages and %d spare extent bytes, want 1 and 0", one.NumPages(), len(one.ext))
	}
}

// TestCompactReusesFrames: the frames Compact cuts are the next appends'
// pages, so delete/insert churn allocates nothing.
func TestCompactReusesFrames(t *testing.T) {
	tbl := NewTable("t", testSchema())
	fillPages(tbl, 10)
	perPage := tbl.Page(0).Capacity()
	keep := int64(6*perPage + 5)
	frames := map[uintptr]bool{}
	for i := 6; i < 10; i++ {
		frames[start(tbl.Page(i))] = true
	}
	tuple := make([]byte, tbl.Schema().TupleSize())
	churn := func() {
		tbl.Compact(func(pi int) bool { return pi < 6 }, func(tu []byte) bool { return types.GetInt(tu, 0) >= keep })
		for i := keep; i < int64(10*perPage); i++ {
			types.PutInt(tuple, 0, i)
			tbl.Append(tuple)
		}
	}
	churn()
	for i := 6; i < 10; i++ {
		if !frames[start(tbl.Page(i))] {
			t.Errorf("page %d after Compact and Append is a new frame", i)
		}
	}
	if allocs := testing.AllocsPerRun(20, churn); allocs != 0 {
		t.Errorf("Compact + Append allocated %v times a round, want 0", allocs)
	}
	if tbl.NumRows() != 10*perPage || tbl.NumPages() != 10 {
		t.Fatalf("after churn: %d rows in %d pages, want %d in 10", tbl.NumRows(), tbl.NumPages(), 10*perPage)
	}
}

// TestReadTableOneSlab: a table ReadTable loads is one slab, its pages
// adjacent and byte-identical to the pages written.
func TestReadTableOneSlab(t *testing.T) {
	tbl := NewTable("t", testSchema())
	fillPages(tbl, 150)
	tbl.Append(make([]byte, tbl.Schema().TupleSize())) // a part-full last page
	var buf bytes.Buffer
	if err := WriteTable(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf, "t")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPages() != tbl.NumPages() || got.NumRows() != tbl.NumRows() {
		t.Fatalf("read %d pages, %d rows; wrote %d, %d", got.NumPages(), got.NumRows(), tbl.NumPages(), tbl.NumRows())
	}
	for i := 0; i < got.NumPages(); i++ {
		if !bytes.Equal(got.Page(i).Bytes(), tbl.Page(i).Bytes()) || cap(got.Page(i).Bytes()) != PageSize {
			t.Fatalf("page %d differs from the page written", i)
		}
		if i > 0 && start(got.Page(i)) != start(got.Page(i-1))+PageSize {
			t.Fatalf("pages %d and %d are not adjacent", i-1, i)
		}
	}
}

// TestReadTableRejectsMalformedPages: a page whose header does not fit
// the schema, or a page cut short, is an error naming the page, not a
// table that panics on its first scan.
func TestReadTableRejectsMalformedPages(t *testing.T) {
	tbl := NewTable("t", testSchema())
	fillPages(tbl, 3)
	var buf bytes.Buffer
	if err := WriteTable(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	pageAt := len(good) - 3*PageSize + PageSize // page 1's header
	for _, c := range []struct {
		name, want string
		mangle     func(b []byte) []byte
	}{
		{"tuple size", "page 1: tuple size 7", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[pageAt+4:], 7)
			return b
		}},
		{"count past capacity", "page 1: 4000 tuples", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[pageAt:], 4000)
			return b
		}},
		{"truncated page", "pages 0-2", func(b []byte) []byte { return b[:len(b)-100] }},
	} {
		_, err := ReadTable(bytes.NewReader(c.mangle(slices.Clone(good))), "t")
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
}
