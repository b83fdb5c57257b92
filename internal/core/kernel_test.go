package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

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

// checkKeySort sorts keys with the compiled key sort and compares the
// result with sort.SliceStable: tuple for tuple when the radix path took
// the input (it is stable), key for key otherwise (the comparator path
// is not).
func checkKeySort(t *testing.T, keys []int64) {
	t.Helper()
	tuples, s := keyed(keys)
	want := append([][]byte(nil), tuples...)
	sort.SliceStable(want, func(i, j int) bool { return types.GetInt(want[i], 8) < types.GetInt(want[j], 8) })
	got := append([][]byte(nil), tuples...)
	radix := len(got) >= radixMin && radixSort(append([][]byte(nil), tuples...), 8)
	CompileKeySort(s, []int{1}).Sort(got)
	for i := range want {
		g, w := got[i], want[i]
		if !radix {
			g, w = g[8:], w[8:]
		}
		if string(g) != string(w) {
			t.Fatalf("n=%d radix=%v: position %d holds (seq %d, key %d), want (seq %d, key %d)", len(keys), radix, i,
				types.GetInt(got[i], 0), types.GetInt(got[i], 8), types.GetInt(want[i], 0), types.GetInt(want[i], 8))
		}
	}
	// The radix kernel itself, at any size: stable whenever it sorts.
	direct := append([][]byte(nil), tuples...)
	if radixSort(direct, 8) {
		for i := range want {
			if string(direct[i]) != string(want[i]) {
				t.Fatalf("n=%d: radixSort position %d holds seq %d, want seq %d", len(keys), i, types.GetInt(direct[i], 0), types.GetInt(want[i], 0))
			}
		}
	}
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
		// every size here but the smallest.
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
	sizes := []int{0, 1, 2, 3, radixMin - 1, radixMin, radixMin + 1, 1000, 5000}
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

// TestKeySortPaths pins which path takes which input: the radix path
// packs, refuses a range too wide to pack, and returns presorted input
// untouched.
func TestKeySortPaths(t *testing.T) {
	wide, _ := keyed([]int64{math.MaxInt64, math.MinInt64, 0})
	if radixSort(wide, 8) {
		t.Error("radixSort packed a 64-bit key range")
	}
	if got := types.GetInt(wide[0], 8); got != math.MaxInt64 {
		t.Errorf("a refused radix sort moved tuples: first key %d", got)
	}
	asc, _ := keyed([]int64{math.MinInt64, -5, -5, 0, math.MaxInt64})
	if !radixSort(asc, 8) {
		t.Error("radixSort refused ascending input")
	}
	narrow, _ := keyed([]int64{3, 1, 2})
	if !radixSort(narrow, 8) || types.GetInt(narrow[0], 8) != 1 {
		t.Error("radixSort did not sort a narrow range")
	}
	if s := types.NewSchema(types.Col("f", types.Float)); CompileKeySort(s, []int{0}).off >= 0 {
		t.Error("a float key took the radix path")
	}
	if s := types.NewSchema(types.Col("a", types.Int), types.Col("b", types.Int)); CompileKeySort(s, []int{0, 1}).off >= 0 {
		t.Error("a two-column key took the radix path")
	}
}

func FuzzKeySort(f *testing.F) {
	f.Add([]byte{3, 1, 2}, uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80}, uint8(0))
	f.Add([]byte{9, 9, 9, 1, 1, 5}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, mod uint8) {
		// Eight bytes a key, or one byte a key reduced mod the second
		// argument to force ties; inputs past a few thousand keys add
		// time, not paths.
		data = data[:min(len(data), 1<<14)]
		var keys []int64
		if mod == 0 {
			for len(data) >= 8 {
				keys = append(keys, int64(binary.LittleEndian.Uint64(data)))
				data = data[8:]
			}
		} else {
			for _, b := range data {
				keys = append(keys, int64(b%mod)-int64(mod/2))
			}
		}
		checkKeySort(t, keys)
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
