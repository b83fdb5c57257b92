package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/types"
)

// keyed stages keys as (seq INT, key INT) tuples, seq being each tuple's
// input position.
func keyed(keys []int64) ([][]byte, *types.Schema) {
	s := types.NewSchema(types.Col("seq", types.Int), types.Col("key", types.Int))
	tuples := make([][]byte, len(keys))
	for i, k := range keys {
		tuples[i] = s.EncodeRow(types.IntDatum(int64(i)), types.IntDatum(k))
	}
	return tuples, s
}

// refCompare is the ordering the key encoding replaces: types.Compare on
// the decoded datums, column by column, negated for a descending one.
func refCompare(s *types.Schema, keys []plan.SortKey, a, b []byte) int {
	for _, k := range keys {
		c := types.Compare(s.GetDatum(a, k.Col), s.GetDatum(b, k.Col))
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// checkSort sorts tuples, whose first column is their input position, with
// the compiled key sort and compares the result with sort.SliceStable over
// refCompare tuple for tuple: every path of the sort is stable.
func checkSort(t *testing.T, s *types.Schema, tuples [][]byte, keys []plan.SortKey) {
	t.Helper()
	want := append([][]byte(nil), tuples...)
	sort.SliceStable(want, func(i, j int) bool { return refCompare(s, keys, want[i], want[j]) < 0 })
	got := append([][]byte(nil), tuples...)
	k := CompileOrder(s, keys)
	k.Sort(got)
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("n=%d keys=%v: position %d holds %v, want %v", len(tuples), keys, i, s.DecodeRow(got[i]), s.DecodeRow(want[i]))
		}
	}
}

// checkKeySort sorts Int keys (keyed) on the key column.
func checkKeySort(t *testing.T, keys []int64) {
	t.Helper()
	tuples, s := keyed(keys)
	checkSort(t, s, tuples, []plan.SortKey{{Col: 1}})
}

func TestKeySortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gens := []struct {
		name string
		key  func(i, n int) int64
	}{
		{"random", func(int, int) int64 { return rng.Int63n(1<<40) - 1<<39 }},
		{"duplicates", func(int, int) int64 { return rng.Int63n(5) - 2 }},
		{"presorted", func(i, _ int) int64 { return int64(i / 3) }},
		{"reversed", func(i, n int) int64 { return int64(n - i) }},
		{"negative", func(int, int) int64 { return -rng.Int63n(1000) }},
		{"extremes", func(int, int) int64 { return []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}[rng.Intn(5)] }},
		// A range of 2^62 packs with at most 2 index bits: too wide for
		// every size here but the smallest, so the indexes ride beside
		// the words.
		{"wide", func(int, int) int64 { return rng.Int63n(1<<62) - 1<<61 }},
		{"near-min", func(int, int) int64 { return math.MinInt64 + rng.Int63n(100) }},
		{"near-max", func(int, int) int64 { return math.MaxInt64 - rng.Int63n(100) }},
		{"one-outlier", func(i, _ int) int64 {
			if i == 7 {
				return math.MaxInt64
			}
			return rng.Int63n(50)
		}},
	}
	sizes := []int{0, 1, 2, 3, radixMin - 1, radixMin, radixMin + 1, 255, 256, 257, 1000, 5000}
	for _, g := range gens {
		for _, n := range sizes {
			t.Run(fmt.Sprintf("%s/%d", g.name, n), func(t *testing.T) {
				keys := make([]int64, n)
				for i := range keys {
					keys[i] = g.key(i, n)
				}
				checkKeySort(t, keys)
			})
		}
	}
}

// TestKeySortPaths pins the radix pass's paths, called directly on
// inputs under the size the sort hands it: words packed above their
// indexes, a 64-bit range whose indexes ride beside the words, presorted
// input returned untouched, and a float word, whose zeros tie — every
// path stable.
func TestKeySortPaths(t *testing.T) {
	sc := GetScratch()
	defer sc.Put()
	fs := types.NewSchema(types.Col("seq", types.Int), types.Col("f", types.Float))
	negZero := math.Copysign(0, -1)
	floats := make([][]byte, 0, 4)
	for i, f := range []float64{0, negZero, -1, 0} {
		floats = append(floats, fs.EncodeRow(types.IntDatum(int64(i)), types.FloatDatum(f)))
	}
	fk := CompileKey(fs, []int{1})
	for _, c := range []struct {
		name   string
		tuples [][]byte
		word   *keyWord
		want   []int64 // seq after the pass
	}{
		{"packed", seqs(keyed([]int64{3, 1, 2, 1})), &keyCol.words[0], []int64{1, 3, 2, 0}},
		{"wide", seqs(keyed([]int64{math.MaxInt64, math.MinInt64, 0, math.MinInt64})), &keyCol.words[0], []int64{1, 3, 2, 0}},
		{"presorted", seqs(keyed([]int64{math.MinInt64, -5, -5, 0, math.MaxInt64})), &keyCol.words[0], []int64{0, 1, 2, 3, 4}},
		{"float", floats, &fk.words[0], []int64{2, 0, 1, 3}},
	} {
		radixSort(sc, c.tuples, c.word)
		var got []int64
		for _, tup := range c.tuples {
			got = append(got, types.GetInt(tup, 0))
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: radixSort left seq %v, want %v", c.name, got, c.want)
		}
	}
}

// seqs drops keyed's schema.
func seqs(tuples [][]byte, _ *types.Schema) [][]byte { return tuples }

// TestKeyWords pins the encoding: the word counts, CHAR keys of different
// widths comparing as zero-padded values, -0 equal to +0, and descending
// words reversing the order.
func TestKeyWords(t *testing.T) {
	s := types.NewSchema(types.Col("i", types.Int), types.Col("f", types.Float), types.CharCol("c2", 2),
		types.CharCol("c8", 8), types.CharCol("c12", 12), types.Col("d", types.Date))
	for _, c := range []struct{ col, words int }{{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 2}, {5, 1}} {
		if k := CompileKey(s, []int{c.col}); k.Words() != c.words {
			t.Errorf("column %d encodes to %d words, want %d", c.col, k.Words(), c.words)
		}
	}
	row := func(i int64, f float64, c2, c8, c12 string) []byte {
		return s.EncodeRow(types.IntDatum(i), types.FloatDatum(f), types.StringDatum(c2),
			types.StringDatum(c8), types.StringDatum(c12), types.DateDatum(0))
	}
	a, b := row(-1, math.Copysign(0, -1), "ab", "ab", "abcdefghi"), row(1, 0, "ab", "abc", "ab")
	cmp := func(ca, cb int, x, y []byte) int {
		ka, kb := CompileKey(s, []int{ca}), CompileKey(s, []int{cb})
		return ka.Compare(x, &kb, y)
	}
	for _, c := range []struct {
		name   string
		ca, cb int
		x, y   []byte
		want   int
	}{
		{"int", 0, 0, a, b, -1},
		{"-0 = +0", 1, 1, a, b, 0},
		{"CHAR(2) 'ab' = CHAR(8) 'ab'", 2, 3, a, a, 0},
		{"CHAR(2) 'ab' < CHAR(8) 'abc'", 2, 3, a, b, -1},
		{"CHAR(8) 'abc' > CHAR(12) 'ab'", 3, 4, b, b, 1},
		{"CHAR(12) 'abcdefghi' > CHAR(8) 'abc'", 4, 3, a, b, 1},
		{"CHAR(12) 'ab' = CHAR(2) 'ab'", 4, 2, b, b, 0},
	} {
		if got := cmp(c.ca, c.cb, c.x, c.y); got != c.want {
			t.Errorf("%s: Compare = %d, want %d", c.name, got, c.want)
		}
	}
	desc := CompileOrder(s, []plan.SortKey{{Col: 0, Desc: true}})
	if desc.Compare(a, &desc, b) != 1 {
		t.Error("a descending key does not reverse the order")
	}
}

// fuzzCols are the key columns FuzzKeySort draws from: every kind, and
// CHAR widths below, at and across a word.
var fuzzCols = []types.Column{
	types.Col("i", types.Int), types.Col("f", types.Float), types.Col("d", types.Date),
	types.CharCol("c1", 1), types.CharCol("c3", 3), types.CharCol("c8", 8), types.CharCol("c11", 11),
}

// fuzzFloats and fuzzChars are the values one byte picks: both zeros and
// both infinities, and strings that share prefixes across a word boundary.
var (
	fuzzFloats = []float64{math.Inf(-1), -1e300, -2.5, -1, math.Copysign(0, -1), 0, 5e-324, 0.5, 1, 3, 1e300, math.Inf(1)}
	fuzzChars  = []string{"", "a", "ab", "abc", "abcdefgh", "abcdefgi", "abcdefghij", "abcdefghik", "b", "ba", "zzzzzzzzzzz"}
)

func FuzzKeySort(f *testing.F) {
	f.Add([]byte{3, 1, 2}, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80}, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{9, 9, 9, 1, 1, 5}, uint8(2), uint8(0), uint8(0))
	f.Add([]byte{4, 5, 0, 11, 4, 5, 7, 1, 2}, uint8(3), uint8(1), uint8(1))
	f.Add([]byte{6, 7, 2, 3, 9, 8, 1, 0, 5, 6, 7, 10}, uint8(5), uint8(2+6<<2), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, mod, shape, desc uint8) {
		// shape picks one to three key columns, desc their directions.
		// A value takes one byte — reduced mod the second argument for an
		// Int or Date, to force ties, or picking a float or a string —
		// and, with mod 0, eight bytes for a number. Inputs past a few
		// thousand tuples add time, not paths.
		data = data[:min(len(data), 1<<14)]
		cols := []types.Column{types.Col("seq", types.Int)}
		var keys []plan.SortKey
		for j := 0; j <= int(shape)%3; j++ {
			cols = append(cols, fuzzCols[(int(shape)>>2+j*3)%len(fuzzCols)])
			keys = append(keys, plan.SortKey{Col: j + 1, Desc: desc>>j&1 != 0})
		}
		s := types.NewSchema(cols...)
		var tuples [][]byte
		row := make([]types.Datum, len(cols))
		for len(data) >= len(keys) {
			row[0] = types.IntDatum(int64(len(tuples)))
			for j, c := range cols[1:] {
				b := data[0]
				wide := mod == 0 && c.Kind != types.String && len(data) >= 8+len(keys)-1-j
				var raw uint64
				if wide {
					raw, data = binary.LittleEndian.Uint64(data), data[8:]
				} else {
					data = data[1:]
				}
				switch c.Kind {
				case types.String:
					row[j+1] = types.StringDatum(fuzzChars[int(b)%len(fuzzChars)][:min(c.Size, len(fuzzChars[int(b)%len(fuzzChars)]))])
				case types.Float:
					v := fuzzFloats[int(b)%len(fuzzFloats)]
					if wide {
						if v = math.Float64frombits(raw); v != v {
							v = 0 // NaN has no place in refCompare's order
						}
					}
					row[j+1] = types.FloatDatum(v)
				default:
					v := int64(raw)
					if !wide {
						v = int64(b%max(mod, 1)) - int64(mod/2)
					}
					row[j+1] = types.Datum{Kind: c.Kind, I: v}
				}
			}
			tuples = append(tuples, s.EncodeRow(row...))
		}
		checkSort(t, s, tuples, keys)
	})
}

// matchRef is the per-tuple filter SelectPage replaces: Go's own
// comparison operators on the decoded field, the CHAR field compared as
// if the value were zero-padded to its width.
func matchRef(preds []Pred, tup []byte, params []types.Datum) bool {
	holds := func(c int, op sql.CmpOp) bool { return op.Holds(c) }
	for _, pr := range preds {
		switch pr.Kind {
		case types.Int, types.Date:
			x, v := types.GetInt(tup, pr.Off), pr.I
			if pr.Slot >= 0 {
				v = params[pr.Slot].I
			}
			if !cmpOp(x, v, pr.Op) {
				return false
			}
		case types.Float:
			x, v := types.GetFloat(tup, pr.Off), pr.F
			if pr.Slot >= 0 {
				v = params[pr.Slot].F
			}
			if !cmpOp(x, v, pr.Op) {
				return false
			}
		case types.String:
			v := pr.S
			if pr.Slot >= 0 {
				v = params[pr.Slot].S
			}
			field := string(tup[pr.Off : pr.Off+pr.Size])
			padded := v
			for len(padded) < pr.Size {
				padded += "\x00"
			}
			c := 0
			switch {
			case field < padded:
				c = -1
			case field > padded:
				c = 1
			}
			if !holds(c, pr.Op) {
				return false
			}
		}
	}
	return true
}

func cmpOp[T int64 | float64](x, v T, op sql.CmpOp) bool {
	switch op {
	case sql.CmpEq:
		return x == v
	case sql.CmpNe:
		return x != v
	case sql.CmpLt:
		return x < v
	case sql.CmpLe:
		return x <= v
	case sql.CmpGt:
		return x > v
	}
	return x >= v
}

func TestSelectPageMatchesMatchPreds(t *testing.T) {
	s := types.NewSchema(types.Col("i", types.Int), types.Col("d", types.Date),
		types.Col("f", types.Float), types.CharCol("c", 3))
	ints := []int64{math.MinInt64, math.MinInt64 + 1, -7, -1, 0, 1, 7, math.MaxInt64 - 1, math.MaxInt64}
	floats := []float64{math.NaN(), math.Copysign(math.NaN(), -1), math.Inf(-1), -2.5, math.Copysign(0, -1), 0,
		5e-324, 2.5, math.MaxFloat64, math.Inf(1)}
	chars := []string{"", "a", "ab", "abc", "b", "\xff"}
	rng := rand.New(rand.NewSource(3))
	const perPage = 40
	page := make([]byte, 0, perPage*s.TupleSize())
	for i := 0; i < perPage; i++ {
		page = append(page, s.EncodeRow(types.IntDatum(ints[rng.Intn(len(ints))]),
			types.DateDatum(ints[rng.Intn(len(ints))]), types.FloatDatum(floats[rng.Intn(len(floats))]),
			types.StringDatum(chars[rng.Intn(len(chars))]))...)
	}
	// Each kind's comparison values: everything stored, and for CHAR a
	// value wider than the column.
	values := map[types.Kind][]types.Datum{}
	for _, v := range ints {
		values[types.Int] = append(values[types.Int], types.IntDatum(v))
		values[types.Date] = append(values[types.Date], types.DateDatum(v))
	}
	for _, v := range floats {
		values[types.Float] = append(values[types.Float], types.FloatDatum(v))
	}
	for _, v := range append(chars, "abcd", "abc\x00") {
		values[types.String] = append(values[types.String], types.StringDatum(v))
	}
	pred := func(col int, op sql.CmpOp, v types.Datum, slot int) Pred {
		c := s.Column(col)
		return Pred{Off: s.Offset(col), Op: op, Kind: c.Kind, Slot: slot, I: v.I, F: v.F, S: v.S, Size: c.Size, Bound: -1}
	}
	var all, none int
	check := func(preds []Pred, params []types.Datum, n int) {
		t.Helper()
		w := s.TupleSize()
		var want []int32
		for i := 0; i < n; i++ {
			if matchRef(preds, page[i*w:i*w+w], params) {
				want = append(want, int32(i))
			}
		}
		got := SelectPage(preds, page, n, w, params, nil)
		if fmt.Sprint(got) != fmt.Sprint(want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("%+v params %v over %d tuples: selected %v, want %v", preds, params, n, got, want)
		}
		for i := 0; i < n; i++ {
			tup := page[i*w : i*w+w]
			if MatchPreds(preds, tup, params) != matchRef(preds, tup, params) {
				t.Fatalf("%+v params %v: MatchPreds disagrees on tuple %d", preds, params, i)
			}
		}
		if n == perPage {
			if len(want) == n {
				all++
			} else if len(want) == 0 {
				none++
			}
		}
	}
	for col := 0; col < s.NumColumns(); col++ {
		for op := sql.CmpEq; op <= sql.CmpGe; op++ {
			for _, v := range values[s.Column(col).Kind] {
				for _, n := range []int{0, 1, perPage} {
					check([]Pred{pred(col, op, v, -1)}, nil, n)
					check([]Pred{pred(col, op, types.Datum{}, 0)}, []types.Datum{v}, n)
				}
			}
		}
	}
	if all == 0 || none == 0 {
		t.Fatalf("degenerate corpus: %d pages all passed, %d none", all, none)
	}
	// Conjunctions: each later predicate shrinks the survivors.
	for k := 0; k < 2000; k++ {
		var preds []Pred
		var params []types.Datum
		for j := 1 + rng.Intn(3); j > 0; j-- {
			col := rng.Intn(s.NumColumns())
			vs := values[s.Column(col).Kind]
			v, op := vs[rng.Intn(len(vs))], sql.CmpOp(rng.Intn(6))
			if rng.Intn(2) == 0 {
				preds = append(preds, pred(col, op, v, -1))
			} else {
				preds = append(preds, pred(col, op, types.Datum{}, len(params)))
				params = append(params, v)
			}
		}
		check(preds, params, 1+rng.Intn(perPage))
	}
}
