package runtime

import "testing"

// TestDirIndex pins the emitted map aggregation's directory probe: a
// value's directory index, and -1 for a value the directory does not
// hold — between two values, below the first, above the last, and in an
// empty directory.
func TestDirIndex(t *testing.T) {
	dir := []uint64{IntWord(-7), IntWord(0), IntWord(3), IntWord(40)}
	for _, c := range []struct {
		v    int64
		want int
	}{
		{-7, 0}, {0, 1}, {3, 2}, {40, 3},
		{-8, -1}, {-1, -1}, {2, -1}, {4, -1}, {41, -1},
	} {
		if got := DirIndex(dir, IntWord(c.v)); got != c.want {
			t.Errorf("DirIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	chars := []uint64{CharWord([]byte("A")), CharWord([]byte("N")), CharWord([]byte("R"))}
	for _, c := range []struct {
		v    string
		want int
	}{{"A", 0}, {"N", 1}, {"R", 2}, {"", -1}, {"B", -1}, {"Z", -1}, {"AA", -1}} {
		if got := DirIndex(chars, CharWord([]byte(c.v))); got != c.want {
			t.Errorf("DirIndex(%q) = %d, want %d", c.v, got, c.want)
		}
	}
	for _, w := range []uint64{0, IntWord(0), ^uint64(0)} {
		if got := DirIndex(nil, w); got != -1 {
			t.Errorf("DirIndex(empty, %#x) = %d, want -1", w, got)
		}
	}
}
