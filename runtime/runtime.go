// Package runtime is the ABI the generated query sources compile
// against: every identifier codegen.EmitSource emits resolves here. The
// paper's generator hands its C file to an external compiler; our
// substitution emits Go and, until this package existed, could only
// syntax-check it. With a real ABI package the emitted source is
// type-checked (go/types) over the whole differential corpus in
// internal/enginetest, so a template that emits ill-typed code fails in
// unit tests rather than at first execution.
//
// The scalar accessors are the real row-format helpers (shared with
// internal/types, so offsets and endianness agree with the engine). The
// structural pieces — Table, Staging, Accumulators — are reference
// implementations over plain byte slices: correct but unoptimised,
// because production execution runs the fused closures of
// internal/core and internal/codegen, never this package. Keeping the
// bodies small and obvious makes the ABI contract auditable.
package runtime

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"

	"hique/internal/types"
)

// Page is one fixed-size run of tuples. Generated scan loops read
// NumTuples and slice Data directly — both must stay exported fields.
type Page struct {
	NumTuples int
	Data      []byte
}

// Table is a materialised result or input: a page list plus an append
// cursor. NumPages is a field (generated loops read it without a call).
type Table struct {
	NumPages  int
	pages     []*Page
	tupleSize int
}

// NewTable returns an empty table for tuples of the given width.
func NewTable(tupleSize int) *Table {
	return &Table{tupleSize: tupleSize}
}

// Page returns the p-th page.
func (t *Table) Page(p int) *Page { return t.pages[p] }

// Alloc reserves one tuple slot and returns it for in-place filling.
func (t *Table) Alloc(size int) []byte {
	last := t.lastPage(size)
	off := last.NumTuples * size
	return last.Data[off : off+size]
}

// Commit finalises the most recent Alloc.
func (t *Table) Commit(dst []byte) {
	t.pages[len(t.pages)-1].NumTuples++
}

const tuplesPerPage = 256

func (t *Table) lastPage(size int) *Page {
	if n := len(t.pages); n > 0 && t.pages[n-1].NumTuples < tuplesPerPage {
		return t.pages[n-1]
	}
	p := &Page{Data: make([]byte, tuplesPerPage*size)}
	t.pages = append(t.pages, p)
	t.NumPages = len(t.pages)
	return p
}

// append commits a copied tuple (Alloc+copy+Commit).
func (t *Table) append(tuple []byte) {
	copy(t.Alloc(len(tuple)), tuple)
	t.Commit(nil)
}

// rows flattens the table into per-tuple slices.
func (t *Table) rows() [][]byte {
	var out [][]byte
	for _, p := range t.pages {
		for i := 0; i < p.NumTuples; i++ {
			out = append(out, p.Data[i*t.tupleSize:(i+1)*t.tupleSize])
		}
	}
	return out
}

// RadixSort orders the tuples by the int64 key at keyOff, stably: the
// engine's radix sort over encoded key words, which the reference ABI
// reproduces with a stable comparison sort.
func (t *Table) RadixSort(keyOff int) {
	rows := t.rows()
	sort.SliceStable(rows, func(i, j int) bool {
		return Int64At(rows[i], keyOff) < Int64At(rows[j], keyOff)
	})
	nt := NewTable(t.tupleSize)
	for _, r := range rows {
		nt.append(r)
	}
	*t = *nt
}

// Truncate keeps the first n tuples.
func (t *Table) Truncate(n int) {
	rows := t.rows()
	if n > len(rows) {
		n = len(rows)
	}
	nt := NewTable(t.tupleSize)
	for _, r := range rows[:n] {
		nt.append(r)
	}
	*t = *nt
}

// Staging is a partitioned staging area (the operator-input buffer of
// the staging template): one page list per partition.
type Staging struct {
	parts  []*Table
	width  int
	fine   []uint64 // value directory for RouteFine, the key words of each value in turn
	starts []int    // page index base per partition, for StartPage/EndPage
}

// NewStaging returns a staging area with the given partition count.
func NewStaging(parts int) *Staging {
	if parts < 1 {
		parts = 1
	}
	return &Staging{parts: make([]*Table, parts)}
}

// WrapTable presents an existing table as a single-partition staging
// (map aggregation scans its input unstaged).
func WrapTable(t *Table) *Staging {
	return &Staging{parts: []*Table{t}, width: t.tupleSize}
}

func (s *Staging) part(i int, size int) *Table {
	if s.parts[i] == nil {
		s.parts[i] = NewTable(size)
	}
	s.width = size
	return s.parts[i]
}

// Alloc reserves a tuple slot in partition 0's tail (Append/Route
// relocate it when the destination differs).
func (s *Staging) Alloc(size int) []byte {
	s.width = size
	return make([]byte, size)
}

// Append commits dst into partition 0.
func (s *Staging) Append(dst []byte) { s.part(0, len(dst)).append(dst) }

// Route commits dst into the given hash partition.
func (s *Staging) Route(dst []byte, part int) { s.part(part, len(dst)).append(dst) }

// RouteFine commits dst into the partition its key words map to through
// the value directory (reference: first-fit growth).
func (s *Staging) RouteFine(dst []byte, key ...uint64) {
	m := len(key)
	i := 0
	for ; i*m < len(s.fine); i++ {
		if slices.Equal(s.fine[i*m:i*m+m], key) {
			break
		}
	}
	if i*m == len(s.fine) {
		s.fine = append(s.fine, key...)
	}
	s.part(i%len(s.parts), len(dst)).append(dst)
}

// Partitions returns the partition count.
func (s *Staging) Partitions() int { return len(s.parts) }

// NumPages returns partition part's page count.
func (s *Staging) NumPages(part int) int {
	if s.parts[part] == nil {
		return 0
	}
	return s.parts[part].NumPages
}

// PageOf returns page p of partition part.
func (s *Staging) PageOf(part, p int) *Page { return s.parts[part].Page(p) }

// StartPage returns the first global page index of partition k (the
// generated join loops iterate global indexes).
func (s *Staging) StartPage(k int) int {
	start := 0
	for i := 0; i < k; i++ {
		start += s.NumPages(i)
	}
	return start
}

// EndPage returns the last global page index of partition k (inclusive;
// one less than StartPage when the partition is empty).
func (s *Staging) EndPage(k int) int { return s.StartPage(k) + s.NumPages(k) - 1 }

// Page resolves a global page index across partitions.
func (s *Staging) Page(p int) *Page {
	for _, t := range s.parts {
		if t == nil {
			continue
		}
		if p < t.NumPages {
			return t.Page(p)
		}
		p -= t.NumPages
	}
	return nil
}

// SortPartition orders one partition by the key at keyOff (hybrid join
// sorts just before joining).
func (s *Staging) SortPartition(k, keyOff int) {
	if s.parts[k] != nil {
		s.parts[k].RadixSort(keyOff)
	}
}

// RadixSort orders partition 0 (the whole input when unpartitioned).
func (s *Staging) RadixSort(keyOff int) { s.SortPartition(0, keyOff) }

// SortEachPartition orders every partition independently.
func (s *Staging) SortEachPartition(keyOff int) {
	for k := range s.parts {
		s.SortPartition(k, keyOff)
	}
}

// AsTable returns the staged tuples as a single table.
func (s *Staging) AsTable() *Table {
	out := NewTable(s.width)
	for _, t := range s.parts {
		if t == nil {
			continue
		}
		for _, r := range t.rows() {
			out.append(r)
		}
	}
	return out
}

// KeyFilter is the join-key filter of the staging template: the keys one
// join input staged, which the join's other inputs test before staging a
// tuple (reference: a set of key words).
type KeyFilter struct {
	keys map[uint64]bool
}

// NewKeyFilter collects the key word of every staged tuple. It returns
// nil, the filter that keeps every key, when the words span maxSpan
// values or more, as the engine's bitmap does.
func NewKeyFilter(s *Staging, word func(tuple []byte) uint64, maxSpan uint64) *KeyFilter {
	f := &KeyFilter{keys: map[uint64]bool{}}
	lo, hi := uint64(0), uint64(0)
	for _, t := range s.parts {
		if t == nil {
			continue
		}
		for _, r := range t.rows() {
			k := word(r)
			if len(f.keys) == 0 {
				lo, hi = k, k
			}
			lo, hi = min(lo, k), max(hi, k)
			f.keys[k] = true
		}
	}
	if hi-lo >= maxSpan-1 {
		return nil
	}
	return f
}

// Has reports whether the key word k is one of the filter's keys; a nil
// filter has every key.
func (f *KeyFilter) Has(k uint64) bool { return f == nil || f.keys[k] }

// IntWord, FloatWord and CharWord are a key's words, the engine's
// order-preserving key encoding: an Int or Date with its sign bit
// flipped; a Float's bits ordered as the float, -0 as +0; each 8 bytes of
// a CHAR big-endian, the last zero-padded.
func IntWord(v int64) uint64 { return uint64(v) ^ 1<<63 }

func FloatWord(v float64) uint64 {
	x := math.Float64bits(v)
	if x == 1<<63 { // -0
		x = 0
	}
	if x>>63 != 0 {
		return ^x
	}
	return x | 1<<63
}

func CharWord(b []byte) uint64 {
	var x [8]byte
	copy(x[:], b)
	return binary.BigEndian.Uint64(x[:])
}

// Bind is the bind vector a parameterized artefact reads its constants
// from at run time.
type Bind struct {
	vals []types.Datum
}

// NewBind wraps bound parameter values.
func NewBind(vals []types.Datum) Bind { return Bind{vals: vals} }

// Int64 returns slot's integer value.
func (b Bind) Int64(slot int) int64 { return b.vals[slot].I }

// Float64 returns slot's float value.
func (b Bind) Float64(slot int) float64 { return b.vals[slot].F }

// Bytes returns slot's string value as bytes.
func (b Bind) Bytes(slot int) []byte { return []byte(b.vals[slot].S) }

// Catalog resolves the generated composer's named inputs.
type Catalog struct {
	tables map[string]*Table
}

// NewCatalog returns an empty input catalog.
func NewCatalog() *Catalog { return &Catalog{tables: map[string]*Table{}} }

// Register binds a name to a table.
func (c *Catalog) Register(name string, t *Table) { c.tables[name] = t }

// Input returns the named input table.
func (c *Catalog) Input(name string) *Table { return c.tables[name] }

// Accumulators is the running-group state of the sort/hybrid
// aggregation template: one open group, closed on key change.
type Accumulators struct {
	key    []byte
	open   bool
	counts [16]int64
	sums   [16]float64
}

// GroupKey returns the open group's key bytes at off (empty before the
// first group opens, which compares unequal to any real key).
func (a *Accumulators) GroupKey(off int) []byte {
	if !a.open || off >= len(a.key) {
		return nil
	}
	return a.key[off:]
}

// OpenGroup starts a group keyed by the tuple.
func (a *Accumulators) OpenGroup(tuple []byte) {
	a.key = append(a.key[:0], tuple...)
	a.open = true
	a.counts = [16]int64{}
	a.sums = [16]float64{}
}

// CloseGroup emits the open group into out (reference: the key tuple
// only; production aggregation emits key+aggregate columns).
func (a *Accumulators) CloseGroup(out *Table) {
	if a.open {
		out.append(a.key[:min(len(a.key), out.tupleSize)])
	}
	a.open = false
}

// Count bumps COUNT(*) aggregate i.
func (a *Accumulators) Count(i int) { a.counts[i]++ }

// Update folds v into aggregate i (sum semantics; MIN/MAX/AVG refine in
// the production accumulators).
func (a *Accumulators) Update(i int, v float64) { a.sums[i] += v }

// Int64At reads the int64 field at off — the engine's row format.
func Int64At(tuple []byte, off int) int64 { return types.GetInt(tuple, off) }

// Float64At reads the float64 field at off.
func Float64At(tuple []byte, off int) float64 { return types.GetFloat(tuple, off) }

// PutInt64 stores v at off.
func PutInt64(dst []byte, off int, v int64) { types.PutInt(dst, off, v) }

// PutFloat64 stores v at off.
func PutFloat64(dst []byte, off int, v float64) { types.PutFloat(dst, off, v) }

// CmpBytes three-way-compares a fixed-width field against a key that may
// be staged bytes or an emitted string literal.
func CmpBytes[B []byte | string](a []byte, b B) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	// A shorter literal padded with NULs equals the fixed-width field.
	for i := n; i < len(a); i++ {
		if a[i] != 0 {
			return 1
		}
	}
	for i := n; i < len(b); i++ {
		if b[i] != 0 {
			return -1
		}
	}
	return 0
}

// Hash is the partition hash of the generated Route calls over a key
// word (Fibonacci-style multiplicative hash; masked by the caller).
func Hash(w uint64) uint64 { return w * 0x9e3779b97f4a7c15 }

// UpdateMergeBounds is the merge join's advance/backtrack step (the
// paper's condition-variable loop bounds). The reference ABI keeps it a
// no-op: the generated nested loops stay correct without the bound
// tightening, just slower.
func UpdateMergeBounds() {}

// DirIndex is the index of the value whose key words are key in dir, a
// value directory's values in ascending order, len(key) words each (the
// map aggregation's group ordinal), or -1 when the directory does not
// hold it: a binary search comparing every word.
func DirIndex(dir []uint64, key ...uint64) int {
	m := len(key)
	i, ok := sort.Find(len(dir)/m, func(i int) int { return slices.Compare(key, dir[i*m:i*m+m]) })
	if !ok {
		return -1
	}
	return i
}

// EmitGroups materialises the flat map-aggregation arrays into out, one
// row per non-empty slot.
func EmitGroups(out *Table, counts []int64, nAggs int) {
	for slot, c := range counts {
		if c == 0 {
			continue
		}
		dst := out.Alloc(out.tupleSize)
		PutInt64(dst, 0, int64(slot))
		out.Commit(dst)
	}
	_ = nAggs
}
