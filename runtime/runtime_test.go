package runtime

import "testing"

// TestDirIndex pins the emitted map aggregation's directory probe: a
// value's directory index, and -1 for a value the directory does not
// hold — between two values, below the first, above the last, sharing a
// value's first word, and in an empty directory.
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
	// A CHAR(12) directory, two words a value: values sharing their first
	// word are told apart by the second.
	words := func(v string) []uint64 {
		b := make([]byte, 12)
		copy(b, v)
		return []uint64{CharWord(b[:8]), CharWord(b[8:])}
	}
	var wide []uint64
	for _, v := range []string{"Customer#001", "Customer#007", "Customer#012", "Supplier#001"} {
		wide = append(wide, words(v)...)
	}
	for _, c := range []struct {
		v    string
		want int
	}{
		{"Customer#001", 0}, {"Customer#007", 1}, {"Customer#012", 2}, {"Supplier#001", 3},
		{"Customer#000", -1}, {"Customer#005", -1}, {"Customer#013", -1}, {"Customer", -1}, {"Supplier#002", -1},
	} {
		if got := DirIndex(wide, words(c.v)...); got != c.want {
			t.Errorf("DirIndex(%q) = %d, want %d", c.v, got, c.want)
		}
	}
	for _, w := range []uint64{0, IntWord(0), ^uint64(0)} {
		if got := DirIndex(nil, w); got != -1 {
			t.Errorf("DirIndex(empty, %#x) = %d, want -1", w, got)
		}
	}
}
