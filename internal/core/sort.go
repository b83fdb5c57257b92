package core

import (
	"container/heap"
	"math"
	"math/bits"
	"slices"

	"hique/internal/storage"
	"hique/internal/types"
)

// sortRunTuples is the run size used by the cache-conscious sort: quicksort
// runs that fit in the L2 cache, then a k-way merge (paper §V-B: "Sorting
// is performed by using an optimized version of quicksort over
// L2-cache-fitting input partitions and then merging them").
const l2CacheBytes = 2 << 20

// Flatten gathers tuple references from a table into a slice; the slices
// alias page memory.
func Flatten(t *storage.Table) [][]byte {
	out := make([][]byte, 0, t.NumRows())
	for p := 0; p < t.NumPages(); p++ {
		page := t.Page(p)
		n := page.NumTuples()
		ts := page.TupleSize()
		data := page.Data()
		for i := 0; i < n; i++ {
			out = append(out, data[i*ts:i*ts+ts:i*ts+ts])
		}
	}
	return out
}

// KeySort is a sort compiled from a schema and its key columns. A single
// Int/Date key radix-sorts the keys it reads once per tuple (radixSort);
// any other key, a short input and a key range too wide to pack sort
// through the comparator (SortTuples).
type KeySort struct {
	Cmp Compare
	off int // the single Int/Date key's offset; -1 when there is none
}

// CompileKeySort compiles the sort over the given key columns of schema.
func CompileKeySort(schema *types.Schema, keys []int) KeySort {
	ks := KeySort{Cmp: MakeKeyCompare(schema, keys), off: -1}
	if len(keys) == 1 {
		if k := schema.Column(keys[0]).Kind; k == types.Int || k == types.Date {
			ks.off = schema.Offset(keys[0])
		}
	}
	return ks
}

// radixMin is the shortest input the radix path takes: below it the
// counting passes cost more than the comparisons they save.
const radixMin = 256

// Sort orders tuples on the key in place.
func (ks KeySort) Sort(tuples [][]byte) {
	if ks.off < 0 || len(tuples) < radixMin || !radixSort(tuples, ks.off) {
		SortTuples(tuples, ks.Cmp)
	}
}

// radixSort stably sorts tuples on the int64 key at off and reports
// whether it could: one pass reads every key for its range and returns at
// once when the keys already ascend; otherwise each tuple's key, less the
// minimum, is packed above its index into one uint64 — false when the two
// need more than 64 bits — and an LSD radix sort over the key bits orders
// the packed values. The index bits need no pass (the values start in
// index order and every pass is stable), so ties keep their input order;
// the indexes then permute the references in place.
func radixSort(tuples [][]byte, off int) bool {
	n := len(tuples)
	if n < 2 {
		return true
	}
	lo := types.GetInt(tuples[0], off)
	hi, prev, inversions := lo, lo, 0
	for _, t := range tuples[1:] {
		k := types.GetInt(t, off)
		lo, hi = min(lo, k), max(hi, k)
		inversions += b2i(k < prev)
		prev = k
	}
	if inversions == 0 {
		return true
	}
	idxBits, keyBits := bits.Len(uint(n-1)), bits.Len64(uint64(hi-lo))
	if idxBits+keyBits > 64 {
		return false
	}
	sc := GetScratch()
	defer sc.Put()
	if cap(sc.keys) < 2*n {
		sc.keys = make([]uint64, 2*n)
	}
	keys, tmp := sc.keys[:n], sc.keys[n:2*n]
	for i, t := range tuples {
		keys[i] = uint64(types.GetInt(t, off)-lo)<<idxBits | uint64(i)
	}
	// Equal-width digits of at most 11 bits: the fewest passes, each
	// histogram cache-resident.
	passes := (keyBits + 10) / 11
	width := (keyBits + passes - 1) / passes
	var hist [1 << 11]int
	count := hist[:1<<width]
	mask := uint64(1)<<width - 1
	for p := 0; p < passes; p++ {
		shift := idxBits + p*width
		clear(count)
		for _, x := range keys {
			count[x>>shift&mask]++
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, x := range keys {
			d := x >> shift & mask
			tmp[count[d]] = x
			count[d]++
		}
		keys, tmp = tmp, keys
	}
	// Position j takes the tuple at index keys[j]: follow each cycle of
	// the permutation, marking a filled position by pointing its entry at
	// itself.
	idx := uint64(1)<<idxBits - 1
	for j := range keys {
		if int(keys[j]&idx) == j {
			continue
		}
		first, at := tuples[j], j
		for {
			src := int(keys[at] & idx)
			keys[at] = uint64(at)
			if src == j {
				tuples[at] = first
				break
			}
			tuples[at], at = tuples[src], src
		}
	}
	return true
}

// MaxKeyFilterBits caps a KeyFilter's span: keys spread over this many
// values or more (1 MiB of bits) build no filter.
const MaxKeyFilterBits = 1 << 23

// KeyFilter is the exact set of the int64 join keys one side of a join
// staged: a bitmap over their [min, max]. A tuple of another side whose key
// is not in it cannot join, so that side's staging drops it before
// projecting it (a semijoin reduction). The bits are the caller's pooled
// memory, reused from one Build to the next.
type KeyFilter struct {
	lo   int64
	top  uint64 // the bitmap's last bit: past the span, so always clear
	bits []uint64
}

// Build fills the filter from the int64 keys at off of the arena's w-byte
// tuples and reports whether it could: false when they span
// MaxKeyFilterBits or more. An empty arena builds the empty filter, which
// drops every key.
func (f *KeyFilter) Build(a *Arena, w, off int) bool {
	data := a.Data[:a.Rows*w]
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for o := off; o < len(data); o += w {
		k := types.GetInt(data, o)
		lo, hi = min(lo, k), max(hi, k)
	}
	// One less than the count of values in [lo, hi], so it cannot
	// overflow; an empty arena leaves it 1 and sets no bit. The bitmap ends
	// past bit span+1, so its top bit stands for no key.
	span := uint64(hi - lo)
	if span >= MaxKeyFilterBits-1 {
		return false
	}
	words := int((span+1)>>6) + 1
	f.lo, f.top = lo, uint64(words)<<6-1
	f.bits = slices.Grow(f.bits[:0], words)[:words]
	clear(f.bits)
	for o := off; o < len(data); o += w {
		d := uint64(types.GetInt(data, o) - lo)
		f.bits[d>>6] |= 1 << (d & 63)
	}
	return true
}

// Bytes reports the bitmap's retained size.
func (f *KeyFilter) Bytes() int { return 8 * cap(f.bits) }

// Has reports whether k is one of the filter's keys: one wrapping
// subtraction and one bit test, a key outside the span testing the clear
// top bit.
func (f *KeyFilter) Has(k int64) bool {
	d := min(uint64(k-f.lo), f.top)
	return f.bits[d>>6]>>(d&63)&1 != 0
}

// Refine compacts the selection vector sel over a page of w-byte tuples to
// the tuples whose int64 key at off is in the filter, keeping their order.
func (f *KeyFilter) Refine(sel []int32, data []byte, w, off int) []int32 {
	k := 0
	for _, i := range sel {
		sel[k] = i
		k += b2i(f.Has(types.GetInt(data, int(i)*w+off)))
	}
	return sel[:k]
}

// SortTuples sorts tuple references in place using quicksort over
// cache-sized runs followed by a k-way merge.
func SortTuples(tuples [][]byte, cmp Compare) {
	n := len(tuples)
	if n < 2 {
		return
	}
	tupleSize := len(tuples[0])
	if tupleSize == 0 {
		// Zero-width tuples (group-less aggregate staging) are all
		// equal; there is nothing to order.
		return
	}
	// Already ordered — a table stored in key order, a merge join's output
	// re-keyed on the same class: one pass that stops at the first
	// inversion, and ties keep their input order.
	i := 1
	for i < n && cmp(tuples[i-1], tuples[i]) <= 0 {
		i++
	}
	if i == n {
		return
	}
	runLen := l2CacheBytes / 2 / tupleSize
	if runLen < 1024 {
		runLen = 1024
	}
	if n <= runLen {
		quicksort(tuples, cmp)
		return
	}

	// Sort runs.
	var runs [][2]int
	for start := 0; start < n; start += runLen {
		end := start + runLen
		if end > n {
			end = n
		}
		quicksort(tuples[start:end], cmp)
		runs = append(runs, [2]int{start, end})
	}

	// K-way merge into a scratch slice.
	out := make([][]byte, 0, n)
	h := &mergeHeap{cmp: cmp, tuples: tuples}
	for _, r := range runs {
		h.items = append(h.items, mergeItem{pos: r[0], end: r[1]})
	}
	heap.Init(h)
	for h.Len() > 0 {
		it := &h.items[0]
		out = append(out, tuples[it.pos])
		it.pos++
		if it.pos >= it.end {
			heap.Pop(h)
		} else {
			heap.Fix(h, 0)
		}
	}
	copy(tuples, out)
}

type mergeItem struct{ pos, end int }

type mergeHeap struct {
	items  []mergeItem
	tuples [][]byte
	cmp    Compare
}

func (h *mergeHeap) Len() int { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool {
	return h.cmp(h.tuples[h.items[i].pos], h.tuples[h.items[j].pos]) < 0
}
func (h *mergeHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x any)    { h.items = append(h.items, x.(mergeItem)) }
func (h *mergeHeap) Pop() any {
	n := len(h.items)
	it := h.items[n-1]
	h.items = h.items[:n-1]
	return it
}

// quicksort is an introsort: median-of-three (ninther for large slices)
// quicksort with insertion sort below a small threshold and a heapsort
// fallback when recursion degenerates (rotated or adversarial inputs would
// otherwise go quadratic). It operates directly on tuple references with
// no interface dispatch in the hot loop, unlike sort.Slice.
func quicksort(a [][]byte, cmp Compare) {
	depth := 0
	for n := len(a); n > 1; n >>= 1 {
		depth += 2
	}
	quicksortDepth(a, cmp, depth)
}

func quicksortDepth(a [][]byte, cmp Compare, depth int) {
	for len(a) > 12 {
		if depth == 0 {
			heapsortTuples(a, cmp)
			return
		}
		depth--
		m := choosePivot(a, cmp)
		a[0], a[m] = a[m], a[0]
		pivot := a[0]
		i, j := 1, len(a)-1
		for {
			for i <= j && cmp(a[i], pivot) < 0 {
				i++
			}
			for i <= j && cmp(a[j], pivot) > 0 {
				j--
			}
			if i > j {
				break
			}
			a[i], a[j] = a[j], a[i]
			i++
			j--
		}
		a[0], a[j] = a[j], a[0]
		// Recurse into the smaller side, loop on the larger.
		if j < len(a)-j {
			quicksortDepth(a[:j], cmp, depth)
			a = a[j+1:]
		} else {
			quicksortDepth(a[j+1:], cmp, depth)
			a = a[:j]
		}
	}
	// Insertion sort for small slices.
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && cmp(a[j], a[j-1]) < 0; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// choosePivot picks a pivot index: median of three for moderate sizes, the
// ninther (median of three medians) for large slices, which defeats the
// rotated/organ-pipe patterns cyclic keys produce in staged runs.
func choosePivot(a [][]byte, cmp Compare) int {
	n := len(a)
	if n > 256 {
		s := n / 8
		m1 := medianOfThreeIdx(a, cmp, 0, s, 2*s)
		m2 := medianOfThreeIdx(a, cmp, n/2-s, n/2, n/2+s)
		m3 := medianOfThreeIdx(a, cmp, n-1-2*s, n-1-s, n-1)
		return medianOfThreeIdx(a, cmp, m1, m2, m3)
	}
	return medianOfThreeIdx(a, cmp, 0, n/2, n-1)
}

func medianOfThreeIdx(a [][]byte, cmp Compare, i, j, k int) int {
	if cmp(a[j], a[i]) < 0 {
		i, j = j, i
	}
	if cmp(a[k], a[j]) < 0 {
		j = k
		if cmp(a[j], a[i]) < 0 {
			j = i
		}
	}
	return j
}

// heapsortTuples is the introsort fallback: guaranteed O(n log n).
func heapsortTuples(a [][]byte, cmp Compare) {
	n := len(a)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(a, cmp, i, n)
	}
	for end := n - 1; end > 0; end-- {
		a[0], a[end] = a[end], a[0]
		siftDown(a, cmp, 0, end)
	}
}

func siftDown(a [][]byte, cmp Compare, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && cmp(a[child+1], a[child]) > 0 {
			child++
		}
		if cmp(a[child], a[root]) <= 0 {
			return
		}
		a[root], a[child] = a[child], a[root]
		root = child
	}
}

// SortTablePooled returns a new table with the rows of t ordered by cmp,
// drawn from the page arena: the sorted copy of a staged intermediate is
// itself an intermediate, so its frames return to the arena when the
// consuming operator releases it.
func SortTablePooled(name string, t *storage.Table, cmp Compare) *storage.Table {
	tuples := Flatten(t)
	SortTuples(tuples, cmp)
	out := storage.NewPooledTable(name, t.Schema())
	for _, tup := range tuples {
		out.Append(tup)
	}
	return out
}
