package core

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"hique/internal/plan"
	"hique/internal/storage"
	"hique/internal/types"
)

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

// Key is a key compiled once into its order-preserving encoding
// (Graefe's normalized keys): every column becomes fixed-width uint64
// words whose unsigned order is the column's order — an Int or Date with
// its sign bit flipped; a Float's order bits (floatKey) with -0 folded
// into +0, so equal words mean ==; a CHAR(n) as ⌈n/8⌉ big-endian words,
// zero-padded; a descending column's words complemented. Keys compare
// word by word, with no comparator per kind: the stage and partition
// sorts, the merge walk, the stream-group boundary, ORDER BY and the
// join-key filter all read the same words.
type Key struct{ words []keyWord }

// keyWord is one word of a key: the column's n bytes at off — eight, but
// for a CHAR column's last word — read as enc says, then xored with flip.
// An Int word's flip includes the sign bit, so its read is one load and
// one xor.
type keyWord struct {
	off, n int
	enc    uint8
	flip   uint64
}

const (
	encInt uint8 = iota
	encFloat
	encChar
)

// CompileKey compiles the ascending key over the given columns of schema.
func CompileKey(schema *types.Schema, cols []int) Key {
	var k Key
	for _, c := range cols {
		k.add(schema, c, false)
	}
	return k
}

// CompileOrder compiles an ORDER BY's key, honouring each column's
// descending flag.
func CompileOrder(schema *types.Schema, keys []plan.SortKey) Key {
	var k Key
	for _, s := range keys {
		k.add(schema, s.Col, s.Desc)
	}
	return k
}

func (k *Key) add(schema *types.Schema, col int, desc bool) {
	c, off := schema.Column(col), schema.Offset(col)
	var flip uint64
	if desc {
		flip = math.MaxUint64
	}
	switch c.Kind {
	case types.String:
		for b := 0; b < c.Size; b += 8 {
			k.words = append(k.words, keyWord{off: off + b, n: min(8, c.Size-b), enc: encChar, flip: flip})
		}
	case types.Float:
		k.words = append(k.words, keyWord{off: off, n: 8, enc: encFloat, flip: flip})
	default:
		k.words = append(k.words, keyWord{off: off, n: 8, enc: encInt, flip: flip ^ 1<<63})
	}
}

// Words reports how many words the key encodes to.
func (k Key) Words() int { return len(k.words) }

// at reads the word of tuple t (or of the tuple t starts with). An Int
// word is one load and one xor, inlined into the caller's loop; other
// words call read.
func (w *keyWord) at(t []byte) uint64 {
	if w.enc != encInt {
		return w.read(t)
	}
	return binary.LittleEndian.Uint64(t[w.off:]) ^ w.flip
}

// read reads a Float or CHAR word.
func (w *keyWord) read(t []byte) uint64 {
	x := load(t, w.off)
	if w.enc == encFloat {
		return floatWord(math.Float64frombits(x)) ^ w.flip
	}
	return charWord(x, w.n) ^ w.flip
}

// batch is the tuples the word reader reads: refs[j], or — refs nil —
// the w-byte tuple sel[j] of data; every word is read off bytes further
// into its tuple than the key says.
type batch struct {
	refs   [][]byte
	data   []byte
	w, off int
	sel    []int32
}

// readBatch reads the key's words of a batch of n tuples into the scratch,
// word-major — word i of tuple j at [i*n+j] — valid until the next call.
// It is the one reader of key words in bulk: directory probes, routes,
// the join-key filter and the radix sort's extraction all go through it.
func (k *Key) readBatch(sc *Scratch, b batch) []uint64 {
	n := len(b.refs) + len(b.sel) // one of them is empty
	x := Grown(sc.words, len(k.words)*n)
	sc.words = x
	for i := range k.words {
		k.words[i].fill(x[i*n:(i+1)*n], b)
	}
	return x
}

// fill reads the word of each of len(x) tuples of b into x: one loop
// loads each tuple's bytes — an Int word decoded on the way, a CHAR(1)
// word's byte alone — and a second decodes a Float or CHAR word.
func (w *keyWord) fill(x []uint64, b batch) {
	o, data, tw, flip := w.off+b.off, b.data, b.w, w.flip
	if w.enc != encInt {
		flip = 0 // the decode loop applies it
	}
	switch {
	case b.refs != nil:
		for j, t := range b.refs[:len(x)] {
			x[j] = load(t, o) ^ flip
		}
	case w.n == 1: // a CHAR(1) word: its byte alone loads faster than eight
		for j, k := range b.sel[:len(x)] {
			x[j] = uint64(data[int(k)*tw+o])<<56 ^ w.flip
		}
		return
	default:
		for j, k := range b.sel[:len(x)] {
			x[j] = load(data, int(k)*tw+o) ^ flip
		}
	}
	if w.enc != encInt {
		w.decode(x)
	}
}

// load is the eight bytes of t at o, little-endian, zeros standing in
// for bytes past t's end (a CHAR column's last word, ending a tuple).
func load(t []byte, o int) uint64 {
	if o+8 <= len(t) {
		return binary.LittleEndian.Uint64(t[o:])
	}
	var b [8]byte
	copy(b[:], t[o:])
	return binary.LittleEndian.Uint64(b[:])
}

// decode turns loaded Float or CHAR words into their encoding in place.
func (w *keyWord) decode(x []uint64) {
	flip, n := w.flip, w.n // locals: the stores to x could alias w
	if w.enc == encFloat {
		for i := range x {
			x[i] = floatWord(math.Float64frombits(x[i])) ^ flip
		}
		return
	}
	for i := range x {
		x[i] = charWord(x[i], n) ^ flip
	}
}

// charWord is the encoding of a loaded CHAR word of n bytes: its bytes
// reversed into big-endian order, those past the column masked off.
func charWord(x uint64, n int) uint64 {
	return bits.ReverseBytes64(x) &^ (1<<(64-8*n) - 1)
}

// floatWord is a float's order key as an unsigned word, -0 folded into +0.
func floatWord(f float64) uint64 {
	k := floatKey(f)
	if k == -1 { // -0, the only float keyed -1
		k = 0
	}
	return uint64(k) ^ 1<<63
}

// Compare three-way compares tuple a's key under k with tuple b's under
// o, word by word; the key with fewer words reads zeros past its end, so
// ascending CHAR keys of different widths compare as zero-padded values.
// A join compares input i's key with input 0's; a sort, k with itself.
func (k *Key) Compare(a []byte, o *Key, b []byte) int { return k.compareFrom(a, o, b, 0) }

// compareFrom compares from word w on.
func (k *Key) compareFrom(a []byte, o *Key, b []byte, w int) int {
	kw, ow := k.words, o.words
	for ; w < len(kw) && w < len(ow); w++ {
		if x, y := kw[w].at(a), ow[w].at(b); x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	// The longer key's words past the shorter's end compare with zeros.
	for ; w < len(kw); w++ {
		if kw[w].at(a) != 0 {
			return 1
		}
	}
	for ; w < len(ow); w++ {
		if ow[w].at(b) != 0 {
			return -1
		}
	}
	return 0
}

// radixMin is the shortest run the radix passes take: below it a stable
// insertion sort over the words costs less than their histograms.
const radixMin = 64

// Sort orders tuples on the key in place, stably — ties keep their input
// order: a radix sort on the first word, then, within each run of equal
// first words, on the second, and so on.
func (k *Key) Sort(tuples [][]byte) {
	if len(k.words) == 0 || len(tuples) < 2 {
		return
	}
	sc := GetScratch()
	defer sc.Put()
	k.sortFrom(sc, tuples, 0)
}

// sortFrom orders tuples, whose words before w are all equal, on the
// words from w on.
func (k *Key) sortFrom(sc *Scratch, tuples [][]byte, w int) {
	n := len(tuples)
	if n < radixMin {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && k.compareFrom(tuples[j], k, tuples[j-1], w) < 0; j-- {
				tuples[j], tuples[j-1] = tuples[j-1], tuples[j]
			}
		}
		return
	}
	word := &k.words[w]
	radixSort(sc, tuples, word)
	if w+1 == len(k.words) {
		return
	}
	for i := 0; i < n; {
		x, j := word.at(tuples[i]), i+1
		for j < n && word.at(tuples[j]) == x {
			j++
		}
		if j-i > 1 {
			k.sortFrom(sc, tuples[i:j], w+1)
		}
		i = j
	}
}

// radixSort stably sorts n >= 2 tuples on one word of their key. The
// word reader fills every word into the scratch, and one pass takes their
// range, returning at once when the words already ascend. Otherwise each
// word, less the minimum, is packed above its index into one uint64 — or,
// when the two need more than 64 bits, carried beside it — and an LSD
// radix sort over the word's bits orders them. Packed, the index bits
// need no pass: the values start in index order and every pass is
// stable, so ties keep their input order. The indexes then permute the
// references in place.
func radixSort(sc *Scratch, tuples [][]byte, word *keyWord) {
	n := len(tuples)
	if cap(sc.keys) < 2*n {
		sc.keys = make([]uint64, 2*n)
	}
	keys := sc.keys[:n]
	word.fill(keys, batch{refs: tuples})
	lo, hi, inversions := keys[0], keys[0], 0
	for i := 1; i < n; i++ {
		x := keys[i]
		lo, hi = min(lo, x), max(hi, x)
		inversions += b2i(x < keys[i-1])
	}
	if inversions == 0 {
		return
	}
	idxBits, keyBits := bits.Len(uint(n-1)), bits.Len64(hi-lo)
	var idx, itmp []uint64 // the indexes, when they do not fit beside the words
	if idxBits+keyBits <= 64 {
		for i, x := range keys {
			keys[i] = (x-lo)<<idxBits | uint64(i)
		}
	} else {
		if cap(sc.keys) < 4*n {
			sc.keys = append(make([]uint64, 0, 4*n), keys...)
		}
		keys, idx, itmp = sc.keys[:n], sc.keys[2*n:3*n], sc.keys[3*n:4*n]
		for i := range keys {
			keys[i] -= lo
			idx[i] = uint64(i)
		}
		idxBits = 0
	}
	tmp := sc.keys[n : 2*n]
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
		if idx == nil {
			for _, x := range keys {
				d := x >> shift & mask
				tmp[count[d]] = x
				count[d]++
			}
		} else {
			for i, x := range keys {
				d := x >> shift & mask
				tmp[count[d]], itmp[count[d]] = x, idx[i]
				count[d]++
			}
			idx, itmp = itmp, idx
		}
		keys, tmp = tmp, keys
	}
	m := uint64(1)<<idxBits - 1
	if idx == nil {
		idx = keys
	} else {
		m = math.MaxUint64
	}
	// Position j takes the tuple at index idx[j]: follow each cycle of
	// the permutation, marking a filled position by pointing its entry at
	// itself.
	for j := range idx {
		if int(idx[j]&m) == j {
			continue
		}
		first, at := tuples[j], j
		for {
			src := int(idx[at] & m)
			idx[at] = uint64(at)
			if src == j {
				tuples[at] = first
				break
			}
			tuples[at], at = tuples[src], src
		}
	}
}

// MaxKeyFilterBits caps a KeyFilter's span: keys spread over this many
// values or more (1 MiB of bits) build no filter.
const MaxKeyFilterBits = 1 << 23

// KeyFilter is the exact set of the one-word join keys one side of a
// join staged: a bitmap over their [min, max] words. A tuple of another
// side whose key is not in it cannot join, so that side's staging drops
// it before projecting it (a semijoin reduction). The bits are the
// caller's pooled memory, reused from one Build to the next.
type KeyFilter struct {
	lo   uint64
	top  uint64 // the bitmap's last bit: past the span, so always clear
	bits []uint64
}

// Build fills the filter from the one-word key of the arena's w-byte
// tuples and reports whether it could: false when their words span
// MaxKeyFilterBits or more. An empty arena builds the empty filter, which
// drops every key.
func (f *KeyFilter) Build(a *Arena, w int, key *Key) bool {
	sc := GetScratch()
	defer sc.Put()
	x := key.readBatch(sc, batch{data: a.Data, w: w, sel: sc.seq(a.Rows)})
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for _, v := range x {
		lo, hi = min(lo, v), max(hi, v)
	}
	// One less than the count of values in [lo, hi], so it cannot
	// overflow; an empty arena leaves it 1 and sets no bit. The bitmap ends
	// past bit span+1, so its top bit stands for no key.
	span := hi - lo
	if span >= MaxKeyFilterBits-1 {
		return false
	}
	words := int((span+1)>>6) + 1
	f.lo, f.top = lo, uint64(words)<<6-1
	f.bits = slices.Grow(f.bits[:0], words)[:words]
	clear(f.bits)
	for _, v := range x {
		d := v - lo
		f.bits[d>>6] |= 1 << (d & 63)
	}
	return true
}

// Bytes reports the bitmap's retained size.
func (f *KeyFilter) Bytes() int { return 8 * cap(f.bits) }

// Has reports whether the key word x is one of the filter's keys: one
// wrapping subtraction and one bit test, a key outside the span testing
// the clear top bit.
func (f *KeyFilter) Has(x uint64) bool {
	d := min(x-f.lo, f.top)
	return f.bits[d>>6]>>(d&63)&1 != 0
}

// Refine compacts the selection vector sel over a page of w-byte tuples to
// the tuples whose one-word key is in the filter, keeping their order.
func (f *KeyFilter) Refine(sc *Scratch, sel []int32, data []byte, w int, key *Key) []int32 {
	x, k := key.readBatch(sc, batch{data: data, w: w, sel: sel}), 0
	for j, i := range sel {
		sel[k] = i
		k += b2i(f.Has(x[j]))
	}
	return sel[:k]
}

// SortTablePooled returns a new table with the rows of t ordered on key,
// drawn from the page arena: the sorted copy of a staged intermediate is
// itself an intermediate, so its frames return to the arena when the
// consuming operator releases it.
func SortTablePooled(name string, t *storage.Table, key *Key) *storage.Table {
	tuples := Flatten(t)
	key.Sort(tuples)
	out := storage.NewPooledTable(name, t.Schema())
	for _, tup := range tuples {
		out.Append(tup)
	}
	return out
}
