package core

// Regression tests for the key sort on the patterns staged runs take:
// cyclically ascending keys (what staged runs of a sequential table look
// like) once drove a median-of-three quicksort quadratic through rotated
// runs, and already-ordered input should cost one pass.

import (
	"testing"
	"time"

	"hique/internal/types"
)

func buildPatternTuples(n, distinct, width int, pattern string) [][]byte {
	arena := make([]byte, n*width)
	out := make([][]byte, n)
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < n; i++ {
		t := arena[i*width : (i+1)*width]
		var k int64
		switch pattern {
		case "asc":
			k = int64(i % distinct)
		case "desc":
			k = int64(distinct - i%distinct)
		case "const":
			k = 7
		default:
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k = int64(x % uint64(distinct))
		}
		types.PutInt(t, 0, k)
		out[i] = t
	}
	return out
}

func TestSortTuplesCyclicPatternFast(t *testing.T) {
	s := types.NewSchema(types.Col("k", types.Int), types.Col("v", types.Int))
	key := CompileKey(s, []int{0})
	tuples := buildPatternTuples(500000, 100000, 16, "asc")
	start := time.Now()
	key.Sort(tuples)
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cyclic-pattern sort took %v (quadratic regression)", d)
	}
	for i := 1; i < len(tuples); i++ {
		if key.Compare(tuples[i-1], &key, tuples[i]) > 0 {
			t.Fatal("output unsorted")
		}
	}
}

// TestSortTuplesOrderedInputIsOnePass pins the early-out: input already
// in key order (ties included) keeps its order — the identity
// permutation, which is also what a stable sort produces — on a one-word
// key and on a three-word one, whose ties the first word leaves to the
// others.
func TestSortTuplesOrderedInputIsOnePass(t *testing.T) {
	const n = 200000
	for _, c := range []struct {
		s    *types.Schema
		cols []int
	}{
		{types.NewSchema(types.Col("k", types.Int), types.Col("v", types.Int)), []int{0}},
		{types.NewSchema(types.Col("k", types.Int), types.Col("v", types.Int), types.CharCol("c", 12)), []int{0, 2}},
	} {
		s, key := c.s, CompileKey(c.s, c.cols)
		tuples := buildPatternTuples(n, n, s.TupleSize(), "asc")
		for i, tp := range tuples {
			types.PutInt(tp, 0, int64(i/3)) // runs of three equal keys
			types.PutInt(tp, 8, int64(i))
		}
		key.Sort(tuples)
		for i, tp := range tuples {
			if types.GetInt(tp, 8) != int64(i) {
				t.Fatalf("%d-word key: ordered input was permuted at %d", key.Words(), i)
			}
		}
		// One inversion at the very end still sorts.
		types.PutInt(tuples[n-1], 0, -1)
		key.Sort(tuples)
		if types.GetInt(tuples[0], 0) != -1 {
			t.Errorf("%d-word key: input with a late inversion came back unsorted", key.Words())
		}
	}
}

// BenchmarkSortTuples measures the early-out where it pays (ordered) and
// the radix passes where it cannot (random, reversed).
func BenchmarkSortTuples(b *testing.B) {
	s := types.NewSchema(types.Col("k", types.Int), types.Col("v", types.Int))
	key := CompileKey(s, []int{0})
	const n = 200000
	for _, pattern := range []string{"ordered", "random", "reversed"} {
		b.Run(pattern, func(b *testing.B) {
			src := buildPatternTuples(n, n, 16, map[string]string{"ordered": "asc", "random": "rand", "reversed": "desc"}[pattern])
			work := make([][]byte, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, src)
				key.Sort(work)
			}
		})
	}
}
