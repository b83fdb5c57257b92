package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"hique/internal/catalog"
	"hique/internal/plan"
	"hique/internal/types"
)

// refSearch is the directory index of v in the sorted, distinct dir — a
// binary search over types.Compare — or -1.
func refSearch(dir []types.Datum, v types.Datum) int32 {
	i := sort.Search(len(dir), func(i int) bool { return types.Compare(dir[i], v) >= 0 })
	if i < len(dir) && types.Compare(dir[i], v) == 0 {
		return int32(i)
	}
	return -1
}

// snapshot is a directory snapshot of a column of the given kind,
// holding dir's values.
func snapshot(kind types.Kind, dir []types.Datum) *catalog.Directory {
	d := &catalog.Directory{Kind: kind}
	for _, v := range dir {
		switch kind {
		case types.String:
			d.Strs = append(d.Strs, v.S)
		case types.Float:
			d.Floats = append(d.Floats, v.F)
		default:
			d.Ints = append(d.Ints, v.I)
		}
	}
	return d
}

// compileDatums compiles column c's lookup of the directory dir.
func compileDatums(c types.Column, dir []types.Datum) *Dir {
	return DirOf(c, snapshot(c.Kind, dir))
}

// dirCase is one directory test: a column, its sorted, distinct
// directory, and values to probe — in the directory or not.
type dirCase struct {
	col    types.Column
	dir    []types.Datum
	probes []types.Datum
}

// charAlphabet spans the byte range a CHAR word orders: low, letters, high.
var charAlphabet = []byte{0x01, 'A', 'B', 'a', 'b', 'z', 0x7f, 0xfe, 0xff}

func randChars(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = charAlphabet[rng.Intn(len(charAlphabet))]
	}
	return string(b)
}

// distinctSorted sorts vals by types.Compare and drops the duplicates.
func distinctSorted(vals []types.Datum) []types.Datum {
	sort.SliceStable(vals, func(i, j int) bool { return types.Compare(vals[i], vals[j]) < 0 })
	out := vals[:0]
	for _, v := range vals {
		if len(out) == 0 || types.Compare(out[len(out)-1], v) != 0 {
			out = append(out, v)
		}
	}
	return out
}

// genDirCase draws a directory of about n values for one of the key
// kinds the directories cover: dense and sparse Int, Date, Float with
// both zeros and both infinities, and CHAR(1), CHAR(3), CHAR(8) and
// CHAR(16), whose values — probes and directory alike — have every width
// up to two past the column's: a probe is stored cut to the column, and a
// directory value wider than the column no probe can equal.
func genDirCase(rng *rand.Rand, kind uint8, n int) dirCase {
	var c dirCase
	var gen func() types.Datum
	switch kind % 9 {
	case 0: // dense Int
		lo := rng.Int63n(1000) - 500
		c.col = types.Col("k", types.Int)
		for i := 0; i < n; i++ {
			c.dir = append(c.dir, types.IntDatum(lo+int64(i)))
		}
		gen = func() types.Datum { return types.IntDatum(lo + rng.Int63n(int64(n)+4) - 2) }
	case 1: // sparse Int over the whole range
		c.col = types.Col("k", types.Int)
		extremes := []int64{math.MinInt64, math.MaxInt64, 0, -1}
		gen = func() types.Datum {
			if rng.Intn(8) == 0 {
				return types.IntDatum(extremes[rng.Intn(len(extremes))])
			}
			return types.IntDatum(rng.Int63() - rng.Int63())
		}
	case 2: // Int with small gaps
		c.col = types.Col("k", types.Int)
		gen = func() types.Datum { return types.IntDatum(rng.Int63n(int64(3*n+1)) - int64(n)) }
	case 3: // Date
		c.col = types.Col("d", types.Date)
		gen = func() types.Datum { return types.DateDatum(9000 + rng.Int63n(int64(2*n+1))) }
	case 4: // Float
		c.col = types.Col("f", types.Float)
		special := []float64{math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.MaxFloat64}
		gen = func() types.Datum {
			if rng.Intn(4) == 0 {
				return types.FloatDatum(special[rng.Intn(len(special))])
			}
			return types.FloatDatum(float64(rng.Intn(41)-20) / 4)
		}
	default: // CHAR(1), CHAR(3), CHAR(8), CHAR(16)
		size := []int{1, 3, 8, 16}[kind%9-5]
		c.col = types.CharCol("s", size)
		gen = func() types.Datum { return types.StringDatum(randChars(rng, rng.Intn(size+3))) }
	}
	if kind%9 != 0 { // the dense Int directory is already drawn
		for i := 0; i < n; i++ {
			c.dir = append(c.dir, gen())
		}
	}
	c.dir = distinctSorted(c.dir)
	for i := 0; i < 3*n+8; i++ {
		if len(c.dir) > 0 && rng.Intn(2) == 0 {
			c.probes = append(c.probes, c.dir[rng.Intn(len(c.dir))])
		} else {
			c.probes = append(c.probes, gen())
		}
	}
	return c
}

// checkDir probes c's directory with every probe value, laid out as the
// last column of a page of tuples (so a CHAR key ends each tuple), through
// Probe over random selections and strides and through Locate, against
// the oracle.
func checkDir(t *testing.T, rng *rand.Rand, c dirCase) {
	t.Helper()
	d := compileDatums(c.col, c.dir)
	s := types.NewSchema(types.Col("seq", types.Int), c.col)
	w, off := s.TupleSize(), s.Offset(1)
	var data []byte
	want := make([]int32, len(c.probes))
	for i, v := range c.probes {
		data = append(data, s.EncodeRow(types.IntDatum(int64(i)), v)...)
		// The oracle sees the value as the column stores it.
		want[i] = refSearch(c.dir, s.GetDatum(data[i*w:], 1))
	}
	sc := GetScratch()
	defer sc.Put()
	for _, sel := range selections(rng, len(c.probes)) {
		stride := int32(1 + rng.Intn(5))
		g := make([]int32, len(sel))
		for j := range g {
			if g[j] = int32(rng.Intn(100)); rng.Intn(10) == 0 {
				g[j] = -1
			}
		}
		start := append([]int32(nil), g...)
		d.Probe(sc, data, w, off, sel, g, stride)
		for j, k := range sel {
			exp := start[j] + want[k]*stride
			if start[j] < 0 || want[k] < 0 {
				exp = -1
			}
			if g[j] != exp {
				t.Fatalf("%v directory %v: probe %v (slot %d, stride %d) = %d, want %d",
					c.col.Kind, c.dir, c.probes[k], start[j], stride, g[j], exp)
			}
		}
	}
	for i := range c.probes {
		probe := []GroupProbe{{Dir: d, Off: off, Stride: 1}}
		if got := Locate(sc, probe, data[i*w:(i+1)*w:(i+1)*w]); got != want[i] {
			t.Fatalf("%v directory %v: Locate(%v) = %d, want %d", c.col.Kind, c.dir, c.probes[i], got, want[i])
		}
	}
}

// FuzzDir pins both directory forms, the rank table and the search, to a
// binary search over types.Compare.
func FuzzDir(f *testing.F) {
	for k := uint8(0); k < 9; k++ {
		f.Add(int64(k), k, uint16(1+7*k))
	}
	f.Add(int64(99), uint8(5), uint16(255))
	f.Add(int64(7), uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, n uint16) {
		rng := rand.New(rand.NewSource(seed))
		checkDir(t, rng, genDirCase(rng, kind, int(n%600)))
	})
}

// TestDirForms pins which form each directory takes: one-word keys of a
// small span — a dense Int range, a CHAR(1) enumeration, CHAR(3) values
// that differ in their last byte, once the zero low bits are shifted out
// — take the rank table; a sparse Int, a Float, CHAR(3) values that
// differ early and a two-word CHAR(16) the search.
func TestDirForms(t *testing.T) {
	ints := func(vs ...int64) []types.Datum {
		var out []types.Datum
		for _, v := range vs {
			out = append(out, types.IntDatum(v))
		}
		return out
	}
	strs := func(vs ...string) []types.Datum {
		var out []types.Datum
		for _, v := range vs {
			out = append(out, types.StringDatum(v))
		}
		return out
	}
	for _, c := range []struct {
		col  types.Column
		dir  []types.Datum
		rank bool
	}{
		{types.Col("k", types.Int), ints(4, 5, 6, 7), true},
		{types.Col("k", types.Int), ints(-3, 0, 90), true},
		{types.Col("k", types.Int), ints(0, 1<<20, 1<<40), false},
		{types.Col("k", types.Float), []types.Datum{types.FloatDatum(0), types.FloatDatum(1)}, false},
		{types.CharCol("c", 1), strs("A", "F", "N", "O", "R"), true},
		{types.CharCol("c", 3), strs("NYA", "NYB", "NYZ"), true},
		{types.CharCol("c", 3), strs("", "AA", "AB"), false},
		{types.CharCol("c", 16), strs("A", "B"), false},
	} {
		if d := compileDatums(c.col, c.dir); (d.rank != nil) != c.rank {
			t.Errorf("%v(%d) directory %v: rank table %v, want %v", c.col.Kind, c.col.Size, c.dir, d.rank != nil, c.rank)
		}
	}
}

// TestDirProbeDenseChar1 pins the CHAR(1) rank table against the search
// over the same values, which a CHAR(9) column's two-word key takes: the
// index the search returns, -1 for a byte outside the directory and for
// every byte of an empty directory.
func TestDirProbeDenseChar1(t *testing.T) {
	dirs := [][]types.Datum{
		{},
		{types.StringDatum("A"), types.StringDatum("N"), types.StringDatum("R")},
		{types.StringDatum(""), types.StringDatum("F"), types.StringDatum("O")},
		{types.StringDatum("\x01"), types.StringDatum("\xff")},
	}
	sc := GetScratch()
	defer sc.Put()
	for _, dir := range dirs {
		snap := snapshot(types.String, dir)
		dense := DirOf(types.CharCol("c", 1), snap)
		search := DirOf(types.CharCol("c", 9), snap)
		if len(dir) > 0 && dense.rank == nil || search.rank != nil {
			t.Fatalf("directory %v: CHAR(1) rank table %v, CHAR(9) rank table %v", dir, dense.rank != nil, search.rank != nil)
		}
		tuple := make([]byte, 12)
		for b := 0; b < 256; b++ {
			tuple[2] = byte(b)
			got := Locate(sc, []GroupProbe{{Dir: dense, Off: 2, Stride: 1}}, tuple[:3])
			if want := Locate(sc, []GroupProbe{{Dir: search, Off: 2, Stride: 1}}, tuple); got != want {
				t.Fatalf("directory %v byte %d: rank table = %d, search = %d", dir, b, got, want)
			}
		}
	}
}

// routeOf routes one value through a partitioning stage over col.
func routeOf(t *testing.T, st *plan.Stage, v types.Datum) int32 {
	t.Helper()
	r, _, err := stageRouter(st)
	if err != nil {
		t.Fatal(err)
	}
	tuple := st.Schema.EncodeRow(types.IntDatum(1), v)
	sc := GetScratch()
	defer sc.Put()
	return r.route(sc, tuple, len(tuple), 1)[0]
}

// TestRoutesAgreeAcrossWidths pins the routes' key handling: equal CHAR
// values staged at different widths, and -0 and +0, reach the same coarse
// partition and the same fine directory index, and an Int key keeps the
// partition HashInt gives its value.
func TestRoutesAgreeAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	stage := func(c types.Column, fine []types.Datum) *plan.Stage {
		st := &plan.Stage{Schema: types.NewSchema(types.Col("pad", types.Int), c), PartitionKey: 1}
		if fine != nil {
			st.Action, st.FineValues = plan.StagePartitionFine, snapshot(c.Kind, fine)
		} else {
			st.Action, st.Partitions = plan.StagePartitionCoarse, 64
		}
		return st
	}
	var strs []types.Datum
	for i := 0; i < 200; i++ {
		strs = append(strs, types.StringDatum(randChars(rng, rng.Intn(4))))
	}
	strs = distinctSorted(strs)
	for _, fine := range [][]types.Datum{nil, strs} {
		var parts []int32
		for _, size := range []int{3, 8, 9, 16} {
			st := stage(types.CharCol("s", size), fine)
			for i, v := range strs {
				p := routeOf(t, st, v)
				if size == 3 {
					parts = append(parts, p)
				} else if p != parts[i] {
					t.Fatalf("fine %v: %q routes to %d as CHAR(3), to %d as CHAR(%d)", fine != nil, v.S, parts[i], p, size)
				}
				if fine != nil && p != int32(i) {
					t.Fatalf("%q at directory index %d routes to %d", v.S, i, p)
				}
			}
		}
	}
	zeros := []types.Datum{types.FloatDatum(-1), types.FloatDatum(0), types.FloatDatum(2)}
	for _, fine := range [][]types.Datum{nil, zeros} {
		st := stage(types.Col("f", types.Float), fine)
		neg, pos := routeOf(t, st, types.FloatDatum(math.Copysign(0, -1))), routeOf(t, st, types.FloatDatum(0))
		if neg != pos || fine != nil && pos != 1 {
			t.Fatalf("fine %v: -0 routes to %d, +0 to %d", fine != nil, neg, pos)
		}
	}
	st := stage(types.Col("k", types.Int), nil)
	for i := 0; i < 1000; i++ {
		v := rng.Int63() - rng.Int63()
		if got, want := routeOf(t, st, types.IntDatum(v)), int32(HashInt(v)&63); got != want {
			t.Fatalf("Int %d routes to %d, HashInt to %d", v, got, want)
		}
	}
	// The hash spreads one-byte CHAR values: 26 letters over 64
	// partitions take more than a few.
	seen := map[int32]bool{}
	for b := 'a'; b <= 'z'; b++ {
		seen[routeOf(t, stage(types.CharCol("s", 1), nil), types.StringDatum(string(b)))] = true
	}
	if len(seen) < 10 {
		t.Fatalf("26 one-byte CHAR values reach only %d of 64 partitions", len(seen))
	}
}
