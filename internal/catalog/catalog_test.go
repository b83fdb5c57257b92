package catalog

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hique/internal/storage"
	"hique/internal/types"
)

func sampleTable(name string, rows int) *storage.Table {
	s := types.NewSchema(types.Col("id", types.Int), types.Col("grp", types.Int), types.CharCol("tag", 8))
	t := storage.NewTable(name, s)
	for i := 0; i < rows; i++ {
		t.AppendRow(types.IntDatum(int64(i)), types.IntDatum(int64(i%10)), types.StringDatum([]string{"a", "b", "c"}[i%3]))
	}
	return t
}

func TestRegisterAndLookup(t *testing.T) {
	c := New()
	tbl := sampleTable("orders", 100)
	c.Register(tbl)
	e, err := c.Lookup("orders")
	if err != nil {
		t.Fatal(err)
	}
	if e.Table != tbl {
		t.Error("Lookup returned wrong table")
	}
	if _, err := c.Lookup("nope"); err == nil {
		t.Error("Lookup of unknown table should fail")
	}
}

func TestStats(t *testing.T) {
	c := New()
	e := c.Register(sampleTable("t", 100))
	st := e.Stats
	if st.Rows != 100 {
		t.Errorf("Rows = %d", st.Rows)
	}
	if st.Columns[0].DistinctValues != 100 {
		t.Errorf("id distinct = %d, want 100", st.Columns[0].DistinctValues)
	}
	if st.Columns[1].DistinctValues != 10 {
		t.Errorf("grp distinct = %d, want 10", st.Columns[1].DistinctValues)
	}
	if st.Columns[2].DistinctValues != 3 {
		t.Errorf("tag distinct = %d, want 3", st.Columns[2].DistinctValues)
	}
	if st.Columns[0].Min != 0 || st.Columns[0].Max != 99 {
		t.Errorf("id min/max = %d/%d", st.Columns[0].Min, st.Columns[0].Max)
	}
}

func TestStatsEmptyTable(t *testing.T) {
	c := New()
	e := c.Register(sampleTable("empty", 0))
	if e.Stats.Rows != 0 {
		t.Errorf("Rows = %d", e.Stats.Rows)
	}
	if e.Stats.Columns[0].Min != 0 || e.Stats.Columns[0].Max != 0 {
		t.Error("empty table min/max should be zeroed")
	}
}

func TestBuildIndexAndProbe(t *testing.T) {
	c := New()
	c.Register(sampleTable("t", 1000))
	idx, err := c.BuildIndex("t", "grp")
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 1000 {
		t.Fatalf("index Len = %d", idx.Len())
	}
	rids := idx.Search(7)
	if len(rids) != 100 {
		t.Errorf("Search(grp=7) found %d rids, want 100", len(rids))
	}
	e, _ := c.Lookup("t")
	if e.Index("grp") != idx {
		t.Error("index not registered on entry")
	}
	if e.Index("id") != nil {
		t.Error("unexpected index on id")
	}
}

func TestBuildIndexErrors(t *testing.T) {
	c := New()
	c.Register(sampleTable("t", 10))
	if _, err := c.BuildIndex("missing", "id"); err == nil {
		t.Error("index on missing table should fail")
	}
	if _, err := c.BuildIndex("t", "missing"); err == nil {
		t.Error("index on missing column should fail")
	}
	if _, err := c.BuildIndex("t", "tag"); err == nil {
		t.Error("index on CHAR column should fail")
	}
}

func TestDropAndNames(t *testing.T) {
	c := New()
	c.Register(sampleTable("b", 1))
	c.Register(sampleTable("a", 1))
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
	c.Drop("a")
	if _, err := c.Lookup("a"); err == nil {
		t.Error("dropped table still resolvable")
	}
}

func TestIndexRIDsResolveToMatchingTuples(t *testing.T) {
	c := New()
	tbl := sampleTable("t", 500)
	c.Register(tbl)
	idx, err := c.BuildIndex("t", "grp")
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.Schema()
	off := s.Offset(1)
	for _, rid := range idx.Search(3) {
		tuple := tbl.Page(int(rid.Page)).Tuple(int(rid.Slot))
		if got := types.GetInt(tuple, off); got != 3 {
			t.Fatalf("rid %v resolves to grp=%d, want 3", rid, got)
		}
	}
}

// statsDriver mutates a catalogued table the way the write path does —
// in-place appends, compacting deletes, in-place updates recorded with
// Rewrite, truncation — reporting every tuple to the entry's hooks and
// ending each statement with Wrote.
type statsDriver struct {
	t *testing.T
	c *Catalog
	e *TableEntry
}

func (d statsDriver) insert(rows ...[]types.Datum) {
	s := d.e.Table.Schema()
	for _, row := range rows {
		slot := d.e.Table.AppendSlot()
		for i := range row {
			s.PutDatum(slot, i, row[i])
		}
		d.e.Added(slot)
	}
	d.c.Wrote(d.e)
}

func (d statsDriver) delete(match func(tuple []byte) bool) {
	removed := d.e.Table.Compact(func(int) bool { return false }, func(tuple []byte) bool {
		if !match(tuple) {
			return false
		}
		d.e.Removed(tuple)
		return true
	})
	if removed > 0 {
		d.c.Wrote(d.e)
	}
}

func (d statsDriver) deleteAll() {
	if d.e.Table.NumRows() > 0 {
		d.e.Table.Truncate()
		d.e.Cleared()
		d.c.Wrote(d.e)
	}
}

func (d statsDriver) update(match func(tuple []byte) bool, col int, v types.Datum) {
	s := d.e.Table.Schema()
	n := 0
	for p := 0; p < d.e.Table.NumPages(); p++ {
		pg := d.e.Table.Page(p)
		for i := 0; i < pg.NumTuples(); i++ {
			tuple := pg.Tuple(i)
			if !match(tuple) {
				continue
			}
			if n == 0 {
				d.e.Table.Rewrite(p)
			}
			d.e.Removed(tuple)
			s.PutDatum(tuple, col, v)
			d.e.Added(tuple)
			n++
		}
	}
	if n > 0 {
		d.c.Wrote(d.e)
	}
}

// check asserts the maintained statistics equal ComputeStats over the
// heap (reflect.DeepEqual: directories' nil-versus-empty included), and
// that every column's directory snapshot holds the directory's values:
// a snapshot taken here survives to the next check only if no write in
// between changed the directory.
func (d statsDriver) check(step string) {
	d.t.Helper()
	if err := d.c.CheckStats(); err != nil {
		d.t.Fatalf("%s: %v", step, err)
	}
	for ci := range d.e.Stats.Columns {
		cs, snap := &d.e.Stats.Columns[ci], d.e.Directory(ci)
		if snap == nil && cs.DirectoryLen() > 0 ||
			snap != nil && (!slices.Equal(snap.Ints, cs.IntValues) || !slices.Equal(snap.Strs, cs.StrValues)) {
			d.t.Fatalf("%s: column %d's snapshot %v differs from its directory", step, ci, snap)
		}
	}
}

// TestIncrementalStatsMatchRecompute applies a seeded sequence of
// inserts, deletes and updates and asserts after every statement that
// the statistics the hooks maintain equal a from-scratch ComputeStats.
func TestIncrementalStatsMatchRecompute(t *testing.T) {
	s := types.NewSchema(types.Col("id", types.Int), types.Col("day", types.Date), types.CharCol("tag", 8), types.Col("f", types.Float))
	c := New()
	e := c.Register(storage.NewTable("t", s))
	d := statsDriver{t: t, c: c, e: e}
	col := func(tuple []byte, i int) types.Datum { return s.GetDatum(tuple, i) }
	idIs := func(ids ...int64) func([]byte) bool {
		return func(tuple []byte) bool { return slices.Contains(ids, col(tuple, 0).I) }
	}
	row := func(id, day int64, tag string, f float64) []types.Datum {
		return []types.Datum{types.IntDatum(id), {Kind: types.Date, I: day}, types.StringDatum(tag), types.FloatDatum(f)}
	}

	// The cases a directory or a bound can get wrong, in order.
	for i := int64(10); i < 20; i++ {
		d.insert(row(i, 100+i%3, fmt.Sprintf("t%d", i%4), float64(i%5)))
	}
	d.check("seed rows")
	d.insert(row(1000, 99, "zz", math.NaN()), row(-5, 500, "aa", math.Copysign(0, -1)))
	d.check("insert outside the domain")
	d.delete(idIs(15))
	d.check("delete the last row carrying a value")
	d.delete(idIs(-5, 1000))
	d.check("delete the current min and max")
	d.update(func(tuple []byte) bool { return col(tuple, 0).I < 13 }, 1, types.Datum{Kind: types.Date, I: 7})
	d.check("update a directory column")
	d.update(func(tuple []byte) bool { return col(tuple, 0).I >= 13 }, 2, types.StringDatum("t1"))
	d.check("update a string directory column onto an existing value")
	d.deleteAll()
	d.check("delete without where")

	// A seeded random walk over small domains, with excursions outside.
	r := rand.New(rand.NewSource(7))
	floats := []float64{0, math.Copysign(0, -1), 1.5, -2, math.NaN(), math.Inf(1)}
	randRow := func() []types.Datum {
		id := int64(r.Intn(40))
		if r.Intn(10) == 0 {
			id = int64(r.Intn(2000) - 1000) // outside the domain
		}
		return row(id, int64(r.Intn(12)), fmt.Sprintf("g%d", r.Intn(6)), floats[r.Intn(len(floats))])
	}
	for step := 0; step < 400; step++ {
		var name string
		switch op := r.Intn(20); {
		case op < 9:
			rows := make([][]types.Datum, 1+r.Intn(4))
			for i := range rows {
				rows[i] = randRow()
			}
			d.insert(rows...)
			name = "insert"
		case op < 13:
			d.delete(idIs(int64(r.Intn(40))))
			name = "delete one value"
		case op < 15:
			lo, hi := e.Stats.Columns[0].Min, e.Stats.Columns[0].Max
			d.delete(idIs(lo, hi))
			name = "delete the bounds"
		case op < 19:
			v := randRow()
			ci := r.Intn(4)
			cut := int64(r.Intn(40))
			d.update(func(tuple []byte) bool { return col(tuple, 0).I < cut }, ci, v[ci])
			name = "update"
		default:
			d.deleteAll()
			name = "delete without where"
		}
		d.check(fmt.Sprintf("step %d (%s)", step, name))
	}

	// Cross MaxDirectoryValues both ways, on an Int and a String column.
	d.deleteAll()
	bulk := make([][]types.Datum, MaxDirectoryValues+1)
	for i := range bulk {
		bulk[i] = row(int64(i), int64(i%9), fmt.Sprintf("s%07d", i), float64(i))
	}
	d.insert(bulk[:MaxDirectoryValues]...)
	d.check("fill the directories to the limit")
	if e.Stats.Columns[0].IntValues == nil || e.Stats.Columns[2].StrValues == nil {
		t.Fatal("directories at the limit are nil")
	}
	d.insert(bulk[MaxDirectoryValues])
	d.check("cross the limit upward")
	if e.Stats.Columns[0].IntValues != nil || e.Stats.Columns[2].StrValues != nil {
		t.Fatal("directories past the limit are kept")
	}
	d.delete(idIs(0, 77))
	d.check("cross the limit downward, removing the minimum")
	d.insert(row(-1, 3, "s-1", 0), row(-2, 3, "s-2", 0))
	d.check("cross the limit upward again with a new minimum")
	d.delete(idIs(5))
	d.check("back to the limit")
	// More values cross zero in one statement than a directory holds.
	d.update(func([]byte) bool { return true }, 0, types.IntDatum(-100))
	d.check("update every row of a full directory onto a new value")
	d.deleteAll()
	d.check("delete without where from past the limit")
}
