package core

import (
	"fmt"
	"slices"
	"testing"

	"hique/internal/plan"
	"hique/internal/types"
)

// mergeKeyCols are the join key columns FuzzMergeJoin draws from, one
// kind per join: an Int, a Float, and CHARs below, at and across a word.
var mergeKeyCols = [][]types.Column{
	{types.Col("k", types.Int)},
	{types.Col("k", types.Float)},
	{types.CharCol("k", 1), types.CharCol("k", 3), types.CharCol("k", 8), types.CharCol("k", 11)},
}

// FuzzMergeJoin runs the merge walk over two or three inputs keyed on one
// kind — CHAR inputs of mixed widths, floats with both zeros — and
// compares the tuple sets it emits with nested loops over types.Compare.
func FuzzMergeJoin(f *testing.F) {
	f.Add([]byte{1, 2, 2, 3, 0, 1, 2, 2, 9}, uint8(0), uint8(4))
	f.Add([]byte{4, 5, 0, 4, 3, 5, 4, 4}, uint8(1), uint8(0))
	f.Add([]byte{2, 3, 4, 5, 6, 7, 2, 3, 4, 10, 1, 2, 3}, uint8(2), uint8(1+2<<1+3<<3))
	f.Add([]byte{1, 1, 2, 3, 1, 1, 2, 3, 1, 2}, uint8(2), uint8(2<<3))
	f.Fuzz(func(t *testing.T, data []byte, kind, shape uint8) {
		// shape picks two or three inputs and, for CHAR keys, each
		// input's width; data's bytes are the keys, one a value, dealt to
		// the inputs in turn. An Int is the byte mod 7, so keys repeat.
		data = data[:min(len(data), 300)]
		cols := mergeKeyCols[int(kind)%len(mergeKeyCols)]
		k := 2 + int(shape)%2
		schemas := make([]*types.Schema, k)
		for i := range schemas {
			schemas[i] = types.NewSchema(types.Col("seq", types.Int), cols[int(shape)>>(1+2*i)%len(cols)])
		}
		in, keys := make([][][]byte, k), make([][]types.Datum, k)
		for n, b := range data {
			i := n % k
			var d types.Datum
			switch c := schemas[i].Column(1); c.Kind {
			case types.Int:
				d = types.IntDatum(int64(b % 7))
			case types.Float:
				d = types.FloatDatum(fuzzFloats[int(b)%len(fuzzFloats)])
			default:
				s := fuzzChars[int(b)%len(fuzzChars)]
				d = types.StringDatum(s[:min(c.Size, len(s))])
			}
			in[i] = append(in[i], schemas[i].EncodeRow(types.IntDatum(int64(len(in[i]))), d))
			keys[i] = append(keys[i], d)
		}

		// The reference: every combination whose keys all equal input 0's.
		var want []string
		var walk func(i int, seqs []int64)
		walk = func(i int, seqs []int64) {
			if i == k {
				want = append(want, fmt.Sprint(seqs))
				return
			}
			for seq, d := range keys[i] {
				if i == 0 || types.Compare(d, keys[0][seqs[0]]) == 0 {
					walk(i+1, append(seqs, int64(seq)))
				}
			}
		}
		walk(0, nil)

		j := &plan.Join{Alg: plan.MergeJoin, Inputs: make([]plan.Stage, k), Keys: make([]int, k)}
		parts := make([][][][]byte, k)
		for i := range in {
			j.Inputs[i].Schema, j.Keys[i] = schemas[i], 1
			key := CompileKey(schemas[i], []int{1})
			key.Sort(in[i])
			parts[i] = [][][]byte{in[i]}
		}
		var got []string
		var c Cursor
		CompileJoin(j).Run(parts, 0, 1, &c, func(c *Cursor) bool {
			seqs := make([]int64, k)
			for i := range seqs {
				seqs[i] = types.GetInt(c.Tuple(i), 0)
			}
			got = append(got, fmt.Sprint(seqs))
			return true
		})
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%d inputs on %v: merge walk emitted %d tuple sets, nested loops %d\n got  %v\n want %v",
				k, cols[0].Kind, len(got), len(want), got, want)
		}
	})
}
