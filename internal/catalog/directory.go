package catalog

import (
	"cmp"
	"slices"
	"sync"

	"hique/internal/types"
)

// Directory is an immutable snapshot of one column's value directory (the
// value-partition map of §V-B): the column's sorted distinct values —
// Ints for an Int or Date column, Strs for a String one — as they stood
// at one generation of the directory. (A Directory can hold Floats, but
// the catalogue keeps no Float directories: a Float key is hashed.) TableEntry.Directory builds it on
// the first demand after the directory last changed, and plans hold it;
// the executors' compiled lookups of it live on it too (Compiled). So a
// directory is copied and compiled once per change, not once per plan,
// and a write never copies one. Its fields are read-only.
type Directory struct {
	Kind   types.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	gen    uint64

	mu       sync.Mutex
	compiled []compiledDir
}

// compiledDir is one compiled lookup of a directory, for probes by a
// column of one kind and width.
type compiledDir struct {
	kind types.Kind
	size int
	v    any
}

// Len is the number of values.
func (d *Directory) Len() int { return len(d.Ints) + len(d.Floats) + len(d.Strs) }

// Gen is the directory's generation: it moves only when a write adds a
// value to the column's directory or drops one from it (0 for a
// directory no table holds, such as a join's intersection).
func (d *Directory) Gen() uint64 { return d.gen }

// Datum is value i, boxed.
func (d *Directory) Datum(i int) types.Datum {
	switch d.Kind {
	case types.String:
		return types.StringDatum(d.Strs[i])
	case types.Float:
		return types.FloatDatum(d.Floats[i])
	}
	return types.Datum{Kind: d.Kind, I: d.Ints[i]}
}

// Index is v's position in the directory, -1 when it holds no such value.
func (d *Directory) Index(v types.Datum) int {
	var i int
	var ok bool
	switch d.Kind {
	case types.String:
		i, ok = slices.BinarySearch(d.Strs, v.S)
	case types.Float:
		i, ok = slices.BinarySearch(d.Floats, v.F)
	default:
		i, ok = slices.BinarySearch(d.Ints, v.I)
	}
	if !ok {
		return -1
	}
	return i
}

// Compiled returns the lookup of d that build compiles for probes by
// column c, calling build only on the first request for c's kind and
// width: the catalogue keeps the executors' compiled form with the
// snapshot without knowing its type, and it lives exactly as long as a
// plan or the table holds the snapshot.
func (d *Directory) Compiled(c types.Column, build func(types.Column, *Directory) any) any {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, x := range d.compiled {
		if x.kind == c.Kind && x.size == c.Size {
			return x.v
		}
	}
	v := build(c, d)
	d.compiled = append(d.compiled, compiledDir{c.Kind, c.Size, v})
	return v
}

// Meet is the intersection of d and o, two directories of one kind: d or
// o itself when it lies within the other — a key/foreign-key join's case,
// which copies nothing — and a new directory otherwise, empty when they
// are disjoint.
func (d *Directory) Meet(o *Directory) *Directory {
	var ints []int64
	var floats []float64
	var strs []string
	var n int
	switch d.Kind {
	case types.String:
		strs, n = meet(d.Strs, o.Strs)
	case types.Float:
		floats, n = meet(d.Floats, o.Floats)
	default:
		ints, n = meet(d.Ints, o.Ints)
	}
	switch n {
	case d.Len():
		return d
	case o.Len():
		return o
	}
	return &Directory{Kind: d.Kind, Ints: ints, Floats: floats, Strs: strs}
}

// meet counts the values two sorted, distinct lists share, n, and
// returns them as a new list unless they are all of a or all of b.
func meet[T cmp.Ordered](a, b []T) (common []T, n int) {
	walk := func(match func(T)) {
		for i, j := 0, 0; i < len(a) && j < len(b); {
			switch c := cmp.Compare(a[i], b[j]); {
			case c < 0:
				i++
			case c > 0:
				j++
			default:
				match(a[i])
				i, j = i+1, j+1
			}
		}
	}
	walk(func(T) { n++ })
	if n == len(a) || n == len(b) {
		return nil, n
	}
	common = make([]T, 0, n)
	walk(func(v T) { common = append(common, v) })
	return common, n
}

// Directory returns the snapshot of column ci's value directory, nil when
// the catalogue keeps none (a Float column, more than MaxDirectoryValues
// values, no rows). The first call after the directory last changed
// copies it; later ones return the same snapshot, so whatever was
// compiled from it is reused. Callers hold at least the reader lock.
func (e *TableEntry) Directory(ci int) *Directory {
	cs := &e.Stats.Columns[ci]
	if cs.IntValues == nil && cs.StrValues == nil {
		return nil
	}
	e.dirMu.Lock()
	defer e.dirMu.Unlock()
	e.growDirs()
	if d := e.dirs[ci]; d != nil {
		return d
	}
	d := &Directory{
		Kind: e.Table.Schema().Column(ci).Kind,
		Ints: slices.Clone(cs.IntValues),
		Strs: slices.Clone(cs.StrValues),
		gen:  e.gens[ci],
	}
	e.dirs[ci] = d
	return d
}

// dirChanged records that column ci's directory gained or lost a value:
// its snapshot goes, and the next one has a new generation. Snapshots
// plans already hold keep their values.
func (e *TableEntry) dirChanged(ci int) {
	e.dirMu.Lock()
	e.growDirs()
	e.dirs[ci] = nil
	e.gens[ci]++
	e.dirMu.Unlock()
}

func (e *TableEntry) growDirs() {
	if e.dirs == nil {
		n := len(e.Stats.Columns)
		e.dirs, e.gens = make([]*Directory, n), make([]uint64, n)
	}
}
