package catalog

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"hique/internal/storage"
	"hique/internal/types"
)

// compiledDirs counts the builds of a stand-in for the executors'
// compiled directory: a copy of the values it was built from.
type compiledDirs struct{ builds atomic.Int64 }

func (c *compiledDirs) of(d *Directory) []int64 {
	return d.Compiled(types.Col("k", types.Int), func(_ types.Column, d *Directory) any {
		c.builds.Add(1)
		return slices.Clone(d.Ints)
	}).([]int64)
}

// TestDirectorySnapshotLifecycle pins when a column's directory snapshot
// is kept and when it is replaced: a write that takes no value's count
// across zero keeps the snapshot and its compiled form; inserting a new
// value and deleting the last row of one each move the generation; a
// replaced snapshot keeps its values and its compiled form.
func TestDirectorySnapshotLifecycle(t *testing.T) {
	s := types.NewSchema(types.Col("id", types.Int), types.CharCol("tag", 8), types.Col("f", types.Float))
	c := New()
	e := c.Register(storage.NewTable("t", s))
	d := statsDriver{t: t, c: c, e: e}
	row := func(id int64, tag string) []types.Datum {
		return []types.Datum{types.IntDatum(id), types.StringDatum(tag), types.FloatDatum(1)}
	}
	for i := int64(0); i < 10; i++ {
		d.insert(row(i, fmt.Sprintf("t%d", i%3)))
	}
	if e.Directory(2) != nil {
		t.Fatal("a Float column has a directory snapshot")
	}
	var cd compiledDirs
	s1 := e.Directory(0)
	if s1 == nil || e.Directory(0) != s1 || s1.Len() != 10 {
		t.Fatalf("snapshot %v is not kept", s1)
	}
	c1 := cd.of(s1)
	tags := e.Directory(1)

	// A repeat of present values crosses no zero, and neither does an
	// update of a non-directory column.
	d.insert(row(3, "t0"), row(7, "t1"))
	d.update(func([]byte) bool { return true }, 2, types.FloatDatum(2))
	if e.Directory(0) != s1 || e.Directory(1) != tags {
		t.Fatal("a write that crosses no zero replaced a snapshot")
	}
	if got := cd.of(e.Directory(0)); &got[0] != &c1[0] || cd.builds.Load() != 1 {
		t.Fatalf("the compiled form was rebuilt (%d builds)", cd.builds.Load())
	}
	// Deleting one of two rows of a value crosses no zero either.
	first := true
	d.delete(func(tuple []byte) bool {
		if types.GetInt(tuple, 0) != 3 || !first {
			return false
		}
		first = false
		return true
	})
	if e.Directory(0) != s1 {
		t.Fatal("deleting one of two rows of a value replaced the snapshot")
	}

	want1 := slices.Clone(s1.Ints)
	d.insert(row(42, "t0"))
	s2 := e.Directory(0)
	if s2 == s1 || s2.Gen() <= s1.Gen() || s2.Len() != 11 || s2.Index(types.IntDatum(42)) != 10 {
		t.Fatalf("inserting a new value: snapshot gen %d → %d, %d values", s1.Gen(), s2.Gen(), s2.Len())
	}
	if e.Directory(1) != tags {
		t.Fatal("a new id replaced the tag snapshot")
	}
	d.delete(func(tuple []byte) bool { return types.GetInt(tuple, 0) == 5 })
	s3 := e.Directory(0)
	if s3 == s2 || s3.Gen() <= s2.Gen() || s3.Index(types.IntDatum(5)) != -1 {
		t.Fatalf("deleting the last row of a value: snapshot gen %d → %d", s2.Gen(), s3.Gen())
	}
	if !slices.Equal(s1.Ints, want1) || !slices.Equal(cd.of(s1), want1) || cd.builds.Load() != 1 {
		t.Fatalf("an old snapshot changed: %v, compiled %v", s1.Ints, cd.of(s1))
	}
	cd.of(s3)
	if cd.builds.Load() != 2 {
		t.Fatalf("a new snapshot is compiled %d times in all, want 2", cd.builds.Load())
	}
	e.Recount()
	if s4 := e.Directory(0); s4 == s3 || s4.Gen() <= s3.Gen() || !slices.Equal(s4.Ints, s3.Ints) {
		t.Fatal("a recount kept the snapshot")
	}
}

// TestDirectoryMeet pins the intersection of two directories: the one
// that lies within the other is returned as is, and only a partial
// overlap builds a new directory.
func TestDirectoryMeet(t *testing.T) {
	ints := func(vs ...int64) *Directory { return &Directory{Kind: types.Int, Ints: vs} }
	a, b := ints(1, 2, 3, 4), ints(2, 3)
	if a.Meet(b) != b || b.Meet(a) != b || a.Meet(a) != a {
		t.Fatal("a contained directory is not the intersection itself")
	}
	m := a.Meet(ints(0, 3, 4, 9))
	if !slices.Equal(m.Ints, []int64{3, 4}) || m.Gen() != 0 {
		t.Fatalf("partial overlap = %v", m.Ints)
	}
	if m := a.Meet(ints(7, 8)); m.Ints == nil || m.Len() != 0 {
		t.Fatalf("disjoint = %#v, want empty and non-nil", m.Ints)
	}
	strs := &Directory{Kind: types.String, Strs: []string{"a", "c"}}
	if m := strs.Meet(&Directory{Kind: types.String, Strs: []string{"b", "c"}}); !slices.Equal(m.Strs, []string{"c"}) || m.Datum(0).S != "c" {
		t.Fatalf("string overlap = %v", m.Strs)
	}
}

// TestDirectoryReadersRaceWriter plans against a table while a writer
// settles new and dropped values into it: readers under the reader lock
// take snapshots and compile them, the writer under the writer lock
// invalidates them. Run it with -race. Every snapshot must stay sorted
// and unchanged after the reader took it.
func TestDirectoryReadersRaceWriter(t *testing.T) {
	s := types.NewSchema(types.Col("id", types.Int))
	c := New()
	e := c.Register(storage.NewTable("t", s))
	d := statsDriver{t: t, c: c, e: e}
	for i := int64(0); i < 64; i++ {
		d.insert([]types.Datum{types.IntDatum(i)})
	}
	var cd compiledDirs
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []*Directory
			var copies [][]int64
			for {
				select {
				case <-stop:
					for i, h := range held {
						if !slices.Equal(h.Ints, copies[i]) {
							t.Errorf("snapshot of gen %d changed", h.Gen())
						}
					}
					return
				default:
				}
				e.RLock()
				snap := e.Directory(0)
				e.RUnlock()
				if !slices.IsSorted(snap.Ints) || !slices.Equal(cd.of(snap), snap.Ints) {
					t.Errorf("snapshot of gen %d is not its values", snap.Gen())
				}
				if len(held) < 64 {
					held, copies = append(held, snap), append(copies, slices.Clone(snap.Ints))
				}
			}
		}()
	}
	write := func(i int64) {
		e.Lock()
		defer e.Unlock()
		if i%3 == 0 {
			d.delete(func(tuple []byte) bool { return types.GetInt(tuple, 0) == i-60 })
		} else {
			d.insert([]types.Datum{types.IntDatum(i)})
		}
	}
	for i := int64(64); i < 364; i++ {
		write(i)
	}
	close(stop)
	wg.Wait()
}
