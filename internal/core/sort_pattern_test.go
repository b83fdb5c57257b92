package core

// Regression tests for the introsort: cyclically ascending keys (what
// staged runs of a sequential table look like) used to drive the
// median-of-three quicksort quadratic through rotated runs.

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

func TestQuicksortCompareCountBounded(t *testing.T) {
	s := types.NewSchema(types.Col("k", types.Int), types.Col("v", types.Int))
	base := MakeKeyCompare(s, []int{0})
	for _, pattern := range []string{"asc", "desc", "const", "rand"} {
		for _, n := range []int{65536, 131072} {
			count := 0
			cmp := func(a, b []byte) int { count++; return base(a, b) }
			tuples := buildPatternTuples(n, 100000, 16, pattern)
			quicksort(tuples, cmp)
			// Sanity: output ordered.
			for i := 1; i < len(tuples); i++ {
				if base(tuples[i-1], tuples[i]) > 0 {
					t.Fatalf("%s n=%d: output unsorted at %d", pattern, n, i)
				}
			}
			// Compare count must stay within a small multiple of
			// n log2 n (17 for these sizes).
			limit := 6 * n * 17
			if count > limit {
				t.Errorf("%s n=%d: %d compares exceeds bound %d (quadratic regression)", pattern, n, count, limit)
			}
		}
	}
}

func TestSortTuplesCyclicPatternFast(t *testing.T) {
	s := types.NewSchema(types.Col("k", types.Int), types.Col("v", types.Int))
	cmp := MakeKeyCompare(s, []int{0})
	tuples := buildPatternTuples(500000, 100000, 16, "asc")
	start := time.Now()
	SortTuples(tuples, cmp)
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cyclic-pattern sort took %v (quadratic regression)", d)
	}
	for i := 1; i < len(tuples); i++ {
		if cmp(tuples[i-1], tuples[i]) > 0 {
			t.Fatal("output unsorted")
		}
	}
}

// TestSortTuplesOrderedInputIsOnePass pins the early-out: input already
// in key order (ties included) costs n-1 compares and keeps its order —
// the identity permutation, which is also what a stable sort produces.
func TestSortTuplesOrderedInputIsOnePass(t *testing.T) {
	s := types.NewSchema(types.Col("k", types.Int), types.Col("v", types.Int))
	base := MakeKeyCompare(s, []int{0})
	const n = 200000 // past the run size, so the merge path would run
	tuples := buildPatternTuples(n, n, 16, "asc")
	for i, tp := range tuples {
		types.PutInt(tp, 0, int64(i/3)) // runs of three equal keys
		types.PutInt(tp, 8, int64(i))
	}
	count := 0
	SortTuples(tuples, func(a, b []byte) int { count++; return base(a, b) })
	if count != n-1 {
		t.Errorf("ordered input cost %d compares, want %d", count, n-1)
	}
	for i, tp := range tuples {
		if types.GetInt(tp, 8) != int64(i) {
			t.Fatalf("ordered input was permuted at %d", i)
		}
	}
	// One inversion at the very end still sorts.
	types.PutInt(tuples[n-1], 0, -1)
	SortTuples(tuples, base)
	if types.GetInt(tuples[0], 0) != -1 {
		t.Error("input with a late inversion came back unsorted")
	}
}

// BenchmarkSortTuples measures the early-out where it pays (ordered) and
// the extra pass where it cannot (random stops at the first inversion,
// reversed at the first pair).
func BenchmarkSortTuples(b *testing.B) {
	s := types.NewSchema(types.Col("k", types.Int), types.Col("v", types.Int))
	cmp := MakeKeyCompare(s, []int{0})
	const n = 200000
	for _, pattern := range []string{"ordered", "random", "reversed"} {
		b.Run(pattern, func(b *testing.B) {
			src := buildPatternTuples(n, n, 16, map[string]string{"ordered": "asc", "random": "rand", "reversed": "desc"}[pattern])
			work := make([][]byte, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, src)
				SortTuples(work, cmp)
			}
		})
	}
}
