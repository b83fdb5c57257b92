package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"hique/internal/storage"
	"hique/internal/types"
)

// keyCol is the key column of keyed tuples, a one-word key at offset 8.
var keyCol = CompileKey(types.NewSchema(types.Col("seq", types.Int), types.Col("key", types.Int)), []int{1})

// has tests an Int key's word against f.
func has(f *KeyFilter, k int64) bool { return f.Has(uint64(k) ^ 1<<63) }

// keyArena stages keys as (seq INT, key INT) tuples, the key at offset 8.
func keyArena(keys []int64) *Arena {
	tuples, _ := keyed(keys)
	a := &Arena{}
	for _, tup := range tuples {
		a.Data = append(a.Data, tup...)
	}
	a.Rows = len(keys)
	return a
}

// keyTable is a heap table of n (seq INT, key INT) tuples.
func keyTable(n int, key func(i int) int64) *storage.Table {
	t := storage.NewTable("k", types.NewSchema(types.Col("seq", types.Int), types.Col("key", types.Int)))
	for i := 0; i < n; i++ {
		t.AppendRow(types.IntDatum(int64(i)), types.IntDatum(key(i)))
	}
	return t
}

// checkKeyFilter builds a filter from build and compares it with a Go map
// on every build key, its neighbours, the span's ends and beyond, the
// int64 extremes and probes: through Has, and through Refine over a page
// of all of them, which must keep exactly the members in page order.
func checkKeyFilter(t *testing.T, build, probes []int64) {
	t.Helper()
	set := map[int64]bool{}
	lo, hi := int64(0), int64(0)
	for i, k := range build {
		if i == 0 {
			lo, hi = k, k
		}
		lo, hi = min(lo, k), max(hi, k)
		set[k] = true
	}
	var f KeyFilter
	values := new(big.Int).Sub(big.NewInt(hi), big.NewInt(lo))
	wantBuilt := values.Add(values, big.NewInt(1)).Cmp(big.NewInt(MaxKeyFilterBits)) < 0
	if built := f.Build(keyArena(build), 16, &keyCol); built != wantBuilt {
		t.Fatalf("%d keys over [%d, %d]: Build = %v, want %v", len(build), lo, hi, built, wantBuilt)
	}
	if !wantBuilt {
		return
	}
	if f.Bytes() > MaxKeyFilterBits/8+8 {
		t.Errorf("bitmap holds %d bytes, past the 1 MiB cap", f.Bytes())
	}
	var ks []int64
	for _, k := range build {
		ks = append(ks, k-1, k, k+1)
	}
	ks = append(ks, lo-1, hi+1, lo-64, hi+64, math.MinInt64, math.MinInt64+1, math.MaxInt64-1, math.MaxInt64, 0, -1)
	ks = append(ks, probes...)
	for _, k := range ks {
		if has(&f, k) != set[k] {
			t.Fatalf("%d keys over [%d, %d]: Has(%d) = %v, want %v", len(build), lo, hi, k, has(&f, k), set[k])
		}
	}
	page, _ := keyed(ks)
	var data []byte
	sel := make([]int32, len(ks))
	for i, tup := range page {
		data = append(data, tup...)
		sel[i] = int32(i)
	}
	sc := GetScratch()
	defer sc.Put()
	got := f.Refine(sc, sel, data, 16, &keyCol)
	var want []int32
	for i, k := range ks {
		if set[k] {
			want = append(want, int32(i))
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%d keys over [%d, %d]: Refine kept %v, want %v", len(build), lo, hi, got, want)
	}
}

func TestKeyFilterMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	gen := func(n int, key func() int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = key()
		}
		return out
	}
	probes := gen(500, func() int64 { return rng.Int63n(1<<21) - 1<<20 })
	cases := []struct {
		name  string
		build []int64
	}{
		{"empty", nil},
		{"single", []int64{42}},
		{"single-negative", []int64{-7}},
		{"random", gen(3000, func() int64 { return rng.Int63n(1<<20) - 1<<19 })},
		{"duplicates", gen(3000, func() int64 { return rng.Int63n(9) - 4 })},
		{"negative", gen(1000, func() int64 { return -rng.Int63n(100000) })},
		{"word-edges", []int64{0, 63, 64, 127, 128}},
		// Spans one short of a word boundary: the top bit must lie past them.
		{"span-63", []int64{0, 63}},
		{"span-191", []int64{9, 200}},
		{"near-min", []int64{math.MinInt64, math.MinInt64 + 5, math.MinInt64 + 64}},
		{"near-max", []int64{math.MaxInt64, math.MaxInt64 - 3, math.MaxInt64 - 200}},
		{"extremes", []int64{math.MinInt64, math.MaxInt64}},
		{"just-under-cap", []int64{-5, -5 + MaxKeyFilterBits - 2, 1000}},
		{"at-cap", []int64{-5, -5 + MaxKeyFilterBits - 1, 1000}},
		{"past-cap", []int64{0, 1 << 40}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkKeyFilter(t, c.build, probes) })
	}
	// A rebuild reuses the bitmap: no bit of a wider earlier filter may
	// survive into a narrower one.
	var f KeyFilter
	f.Build(keyArena(gen(2000, func() int64 { return rng.Int63n(1 << 16) })), 16, &keyCol)
	f.Build(keyArena([]int64{5, 70}), 16, &keyCol)
	for k := int64(0); k < 1<<16; k++ {
		if has(&f, k) != (k == 5 || k == 70) {
			t.Fatalf("rebuilt filter: Has(%d) = %v", k, has(&f, k))
		}
	}
}

// TestStagePagesDropsFilteredKeys pins the staging loop's refine step: a
// filtered scan stages, in page order, exactly the tuples of the
// unfiltered scan whose key is in the filter, and tallies the others as
// dropped.
func TestStagePagesDropsFilteredKeys(t *testing.T) {
	in := keyTable(5000, func(i int) int64 { return int64(i*7919) % 1000 })
	st := &Stager{Project: func(_ *Scratch, data []byte, w int, sel []int32, dst []byte) {
		for j, k := range sel {
			copy(dst[j*w:(j+1)*w], data[int(k)*w:])
		}
	}, Width: 16, InWidth: 16, FilterKey: keyCol}
	var all, kept Arena
	st.StagePages(&all, in, 0, in.NumPages(), nil, nil)
	var f KeyFilter
	if !f.Build(keyArena([]int64{3, 500, 999, 2000}), 16, &keyCol) {
		t.Fatal("filter not built")
	}
	pg := st.StagePages(&kept, in, 0, in.NumPages(), nil, &f)
	var want []byte
	for o := 0; o < len(all.Data); o += 16 {
		if has(&f, types.GetInt(all.Data, o+8)) {
			want = append(want, all.Data[o:o+16]...)
		}
	}
	if string(kept.Data) != string(want) || kept.Rows != len(want)/16 || kept.Rows == 0 {
		t.Fatalf("filtered staging kept %d tuples, want %d", kept.Rows, len(want)/16)
	}
	if pg.Dropped != all.Rows-kept.Rows || pg.Rows != all.Rows {
		t.Errorf("tally %+v: want %d examined, %d dropped", pg, all.Rows, all.Rows-kept.Rows)
	}
}

func FuzzKeyFilter(f *testing.F) {
	f.Add([]byte{3, 1, 2}, []byte{1, 4}, uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, []byte{0, 0, 0, 0, 0, 0, 0, 0x80}, uint8(0))
	f.Add([]byte{200, 100, 9}, []byte{}, uint8(64))
	f.Fuzz(func(t *testing.T, build, probe []byte, shift uint8) {
		// Eight bytes a key when shift is 0; otherwise one byte a key,
		// shifted left by shift%64 so spans reach the cap and wrap.
		decode := func(data []byte) []int64 {
			data = data[:min(len(data), 1<<12)]
			var keys []int64
			if shift == 0 {
				for len(data) >= 8 {
					keys = append(keys, int64(binary.LittleEndian.Uint64(data)))
					data = data[8:]
				}
				return keys
			}
			for _, b := range data {
				keys = append(keys, int64(b)<<(shift%64))
			}
			return keys
		}
		checkKeyFilter(t, decode(build), decode(probe))
	})
}
