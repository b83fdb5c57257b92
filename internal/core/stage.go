package core

import (
	"fmt"
	"math/bits"
	"sync"

	"hique/internal/btree"
	"hique/internal/plan"
	"hique/internal/storage"
	"hique/internal/types"
)

// Arena is the output of a staging step (paper §IV step 1): the projected
// tuples packed into one flat buffer, their partition routes (partitioned
// stages only), and the tuple count. The general walk fills one per stage
// and execution; the fused pipelines keep theirs in pooled scratches, one
// per morsel worker inside a parallel phase.
type Arena struct {
	Data    []byte
	PartIdx []int32
	Rows    int
}

// Reset empties the arena for one execution, pre-sizing it from the
// optimizer's cardinality estimate.
func (a *Arena) Reset(estRows, width int) {
	a.Data, a.PartIdx, a.Rows = a.Data[:0], a.PartIdx[:0], 0
	if want := preSize(estRows, width); want > 0 && cap(a.Data) < want {
		a.Data = make([]byte, 0, want)
	}
}

// preSize converts the optimizer's cardinality estimate into an initial
// arena capacity, capped so a wild estimate cannot front-load a huge
// allocation (past the cap the arena grows geometrically as staged
// tuples actually arrive).
func preSize(estRows, width int) int {
	const maxPreSize = 1 << 20
	return min(max(estRows, 0)*width, maxPreSize)
}

// Slots reserves the next n w-byte tuples at the end of the arena.
func (a *Arena) Slots(n, w int) []byte {
	off := len(a.Data)
	a.Data = Extend(a.Data, n*w)
	return a.Data[off : off+n*w : off+n*w]
}

// Keep commits the n tuples Slots reserved last. Under a route r (nil
// when the stage does not partition) it routes them as one batch and
// records each one's partition — or drops it again when the fine route
// finds its key outside the directory: it cannot join. The kept tuples
// stay in order.
func (a *Arena) Keep(sc *Scratch, n, w int, r *Router) {
	if r == nil {
		a.Rows += n
		return
	}
	end := len(a.Data) - n*w
	for j, p := range r.route(sc, a.Data[end:], w, n) {
		if p >= 0 {
			o := len(a.Data) - (n-j)*w
			end += copy(a.Data[end:end+w], a.Data[o:o+w])
			a.PartIdx = append(a.PartIdx, p)
			a.Rows++
		}
	}
	a.Data = a.Data[:end]
}

// Extend grows a flat buffer by w bytes, reusing capacity.
func Extend(b []byte, w int) []byte {
	if len(b)+w <= cap(b) {
		return b[:len(b)+w]
	}
	nb := make([]byte, len(b)+w, 2*(len(b)+w)+256)
	copy(nb, b)
	return nb
}

// Stager is a staging descriptor compiled over its input schema: the
// residual predicates, the projection, the partition route, and the sort
// the consuming operator needs. It holds no execution state, so one
// compiled stage serves concurrent executions and morsel workers alike.
type Stager struct {
	Preds []Pred
	// Prune is the part of Preds a page's bounds can judge (Pruner).
	Prune []Pred
	// Project is the compiled projection's (*Projector).Project.
	Project func(sc *Scratch, data []byte, w int, sel []int32, dst []byte)
	Width   int // staged tuple width
	InWidth int // input tuple width

	// Router sends staged tuples to Parts partitions (Arena.Keep); nil,
	// with Parts 0, when the stage does not partition.
	Router *Router
	Parts  int

	// sort orders the staged output (StageSort) or, for a stage that sorts
	// its partitions, each partition; it has no words otherwise.
	sort Key

	// FilterKey is the one-word join key, over the input schema, that a
	// KeyFilter handed to StagePages tests; the join compiling the stage
	// sets it.
	FilterKey Key
}

// CompileStage compiles a staging descriptor over its input schema.
func CompileStage(st *plan.Stage, in *types.Schema) (*Stager, error) {
	if !st.Projectable() {
		return nil, fmt.Errorf("core: stage computes a CHAR column")
	}
	preds := CompilePreds(in, st.Filters)
	s := &Stager{
		Preds:   preds,
		Prune:   Pruner(preds),
		Project: MakeProjector(in, st.Cols, st.Schema).Project,
		Width:   st.Schema.TupleSize(),
		InWidth: in.TupleSize(),
	}
	switch st.Action {
	case plan.StageSort:
		s.sort = CompileKey(st.Schema, st.SortKeys)
	case plan.StagePartitionFine, plan.StagePartitionCoarse:
		var err error
		if s.Router, s.Parts, err = stageRouter(st); err != nil {
			return nil, err
		}
		if st.SortPartitions {
			s.sort = CompileKey(st.Schema, st.SortKeys)
		}
	case plan.StageNone:
	default:
		return nil, fmt.Errorf("core: unknown stage action %v", st.Action)
	}
	return s, nil
}

// Stage is the one stage-a-tuple step: filter the input tuple against the
// bind vector, project it into a new arena slot — a batch of one, with
// sc's registers — and route it.
func (s *Stager) Stage(sc *Scratch, a *Arena, tup []byte, params []types.Datum) {
	if len(s.Preds) > 0 && !MatchPreds(s.Preds, tup, params) {
		return
	}
	s.Project(sc, tup, len(tup), sc.One(), a.Slots(1, s.Width))
	a.Keep(sc, 1, s.Width, s.Router)
}

// StagePages is the full-scan staging loop over pages [lo, hi) of t:
// direct page iteration with offset arithmetic, skipping the pages whose
// bounds the predicates exclude and filtering each page read into a
// selection vector before projecting its survivors in one batch. A
// non-nil kf refines the selection to the tuples whose join key
// (FilterKey) is in it, and the tally counts the tuples it dropped. A
// caller-only run covers the whole table; a morsel covers its page range
// into a worker's arena.
func (s *Stager) StagePages(a *Arena, t *storage.Table, lo, hi int, params []types.Datum, kf *KeyFilter) Pages {
	inW, w := s.InWidth, s.Width
	var tally Pages
	sc := GetScratch()
	defer sc.Put()
	for pi := lo; pi < hi; pi++ {
		if len(s.Prune) > 0 && !PageMayMatch(s.Prune, t, pi, params) {
			tally.Skipped++
			continue
		}
		pg := t.Page(pi)
		n := pg.NumTuples()
		data := pg.Data()
		tally.Read++
		tally.Rows += n
		sel := sc.Select(s.Preds, data, n, inW, params)
		if kf != nil {
			m := len(sel)
			sel = kf.Refine(sc, sel, data, inW, &s.FilterKey)
			tally.Dropped += m - len(sel)
		}
		if len(sel) > 0 {
			s.Project(sc, data, inW, sel, a.Slots(len(sel), w))
			a.Keep(sc, len(sel), w, s.Router)
		}
	}
	return tally
}

// StageProbe stages the tuples of t the index entries for key point at —
// an index-probed input's staging pass — and returns how many the probe
// fetched.
func (s *Stager) StageProbe(a *Arena, t *storage.Table, tree *btree.Tree, key int64, params []types.Datum) int {
	sc := GetScratch()
	defer sc.Put()
	return Probe(t, tree, key, func(tup []byte) bool {
		s.Stage(sc, a, tup, params)
		return true
	})
}

// Probe hands fn the tuples of t the index entries for key point at, in
// RID order, until fn returns false, and returns how many it fetched.
func Probe(t *storage.Table, tree *btree.Tree, key int64, fn func(tup []byte) bool) int {
	n := 0
	tree.Range(key, key, func(_ int64, rid btree.RID) bool {
		tup, ok := FetchRID(t, rid)
		if !ok {
			return true
		}
		n++
		return fn(tup)
	})
	return n
}

// FetchRID returns the tuple an index entry points at, or false when its
// row has since moved out of range.
func FetchRID(t *storage.Table, rid btree.RID) ([]byte, bool) {
	if int(rid.Page) >= t.NumPages() {
		return nil, false
	}
	page := t.Page(int(rid.Page))
	if int(rid.Slot) >= page.NumTuples() {
		return nil, false
	}
	return page.Tuple(int(rid.Slot)), true
}

// Order lays the staged tuples out for the consuming operator through b:
// the stage's partitions — one, in staging order, when it does not
// partition — each sorted when the stage sorts. presorted skips a sort the
// staging order already satisfies (an ordered index traversal).
func (s *Stager) Order(a *Arena, b *Buckets, presorted bool) [][][]byte {
	parts := b.Bucket(a, s.Width, s.Parts)
	if !presorted {
		s.sortEach(parts)
	}
	return parts
}

// sortEach sorts each part on the stage's sort key, if it has one.
func (s *Stager) sortEach(parts [][][]byte) {
	for _, p := range parts {
		s.sort.Sort(p)
	}
}

// Scratch is the pooled working memory of the page kernels: a page
// loop's selection vector, the registers of a vector program, the group
// slots of a fold (or a route's partitions), a batch's key words, and a
// radix sort's. One pool serves them all, so none allocates once warm.
type Scratch struct {
	sel   []int32
	iota  []int32  // the selection 0, 1, 2, ... of tuples read in a row
	words []uint64 // the key words Key.readBatch read
	keys  []uint64 // a radix sort's words and their ping-pong copy, then any indexes

	// fr and ir hold a vector program's float and int registers, n
	// values each; g is a fold's group-slot vector.
	fr  []float64
	ir  []int64
	n   int
	g   []int32
	one [1]int32 // the selection of a batch of one: tuple 0
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch draws a scratch from the pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Put returns the scratch to the pool; the caller must not use it after.
// A scratch a sort or a large batch of key words grew past
// MaxPooledScratch goes to the collector instead.
func (sc *Scratch) Put() {
	if 8*(cap(sc.keys)+cap(sc.words))+4*cap(sc.iota) <= MaxPooledScratch {
		scratchPool.Put(sc)
	}
}

// MaxPooledScratch bounds the memory a pooled scratch — this package's,
// or the fused join's staging scratch — may keep alive: pooled memory is
// live memory, held once per P. A serving-size execution stays
// allocation-free; an analytic-size one (28 MB of staging for TPC-H Q3 at
// SF 0.1) goes back to the collector instead, since kept in every P's
// pool slot it doubles through GC pacing into resident memory
// (tpch_analytic peak_rss_mb 243 → 335 when pooled).
const MaxPooledScratch = 4 << 20

// seq returns the selection of tuples 0 to n-1.
func (sc *Scratch) seq(n int) []int32 {
	for i := len(sc.iota); i < n; i++ {
		sc.iota = append(sc.iota, int32(i))
	}
	return sc.iota[:n]
}

// One returns the selection of a batch of one, for kernels that only
// read their selection. It lives in the scratch, so a call through a
// function value does not move it to the heap.
func (sc *Scratch) One() []int32 { return sc.one[:] }

// floats returns float register r of the last program run, nil for -1
// (a constant operand); ints the int one.
func (sc *Scratch) floats(r int) []float64 { return register(sc.fr, r, sc.n) }
func (sc *Scratch) ints(r int) []int64     { return register(sc.ir, r, sc.n) }

func register[T any](file []T, r, n int) []T {
	if r < 0 {
		return nil
	}
	return file[r*n : (r+1)*n : (r+1)*n]
}

// Grown returns s resliced to n elements, reallocating only when short
// (the elements within the old capacity carry over, and the new capacity
// leaves room to grow).
func Grown[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// Select filters one page through preds (SelectPage) into the scratch's
// selection vector and returns the survivors, valid until the next call.
func (sc *Scratch) Select(preds []Pred, data []byte, n, w int, params []types.Datum) []int32 {
	sc.sel = SelectPage(preds, data, n, w, params, sc.sel)
	return sc.sel
}

// Buckets holds the tuple-reference arrays bucketing fills: the pooled
// analogue of a partitioned hash table.
type Buckets struct {
	refs   [][]byte
	parts  [][][]byte
	counts []int
}

// Bytes reports the size of the reference array, which dominates what the
// buckets hold.
func (b *Buckets) Bytes() int { return 24 * cap(b.refs) }

// Bucket groups an arena's w-byte tuples into m partitions by their
// recorded routes: a counting sort over the flat arena that keeps staging
// order within each partition. m <= 1 is one partition in staging order.
// The returned partitions alias the arena.
func (b *Buckets) Bucket(a *Arena, w, m int) [][][]byte {
	data, n := a.Data, a.Rows
	refs := b.refs[:0]
	if cap(refs) < n {
		refs = make([][]byte, 0, n)
	}
	refs = refs[:n]
	b.parts = b.parts[:0]
	if m <= 1 {
		for k, off := 0, 0; k < n; k, off = k+1, off+w {
			refs[k] = data[off : off+w : off+w]
		}
		b.refs, b.parts = refs, append(b.parts, refs)
		return b.parts
	}
	counts := b.counts[:0]
	if cap(counts) < m {
		counts = make([]int, 0, m)
	}
	counts = counts[:m]
	clear(counts)
	for _, p := range a.PartIdx {
		counts[p]++
	}
	// Prefix sums -> per-partition start offsets.
	start := 0
	for p, c := range counts {
		counts[p] = start
		start += c
	}
	// Stable scatter, laid out partition by partition.
	for k, p := range a.PartIdx {
		refs[counts[p]] = data[k*w : k*w+w : k*w+w]
		counts[p]++
	}
	prev := 0
	for _, end := range counts {
		b.parts = append(b.parts, refs[prev:end])
		prev = end
	}
	b.refs, b.counts = refs, counts
	return b.parts
}

// stageRouter compiles a partitioning stage's route and partition count:
// the hash route for coarse partitions; for fine ones the probe of the
// stage's value directory, one partition per directory value. A tuple
// whose key is absent from the directory routes to -1 and is dropped: it
// cannot join with anything on the other side. The directory is empty —
// zero partitions, every tuple dropped — when the join inputs' key
// domains are disjoint; it is nil only when the planner chose fine
// partitioning over a key domain the catalogue never tracked.
func stageRouter(st *plan.Stage) (*Router, int, error) {
	if st.Action == plan.StagePartitionCoarse {
		if st.Partitions <= 0 {
			return nil, 0, fmt.Errorf("core: coarse partitioning with %d partitions", st.Partitions)
		}
		// A group-less aggregate stages an empty tuple with no
		// partitioning key: it, and a single partition, route everything
		// to partition 0 without hashing.
		if st.PartitionKey >= st.Schema.NumColumns() || st.Partitions == 1 {
			return &Router{}, st.Partitions, nil
		}
		key := CompileKey(types.NewSchema(st.Schema.Column(st.PartitionKey)), []int{0})
		return &Router{key: key, off: st.Schema.Offset(st.PartitionKey), mask: uint64(st.Partitions - 1)}, st.Partitions, nil
	}
	if st.FineValues == nil {
		return nil, 0, fmt.Errorf("core: fine partitioning without a value directory")
	}
	return &Router{dir: DirOf(st.Schema.Column(st.PartitionKey), st.FineValues), off: st.Schema.Offset(st.PartitionKey)}, st.FineValues.Len(), nil
}

// Router sends staged tuples to partitions, a batch at a time (§V-B):
// the fine route is the batch's probe of the value directory dir; the
// coarse one hashes the key's words into mask+1 partitions, a power of
// two (mask 0: all to partition 0). off is the partition key's offset in
// the staged tuple.
type Router struct {
	dir  *Dir
	key  Key // the coarse partition key, at offset 0
	off  int
	mask uint64
}

// route returns the partitions of the n w-byte tuples of data in the
// scratch's slot vector, -1 for a tuple the fine route drops. The coarse
// hash folds the key's nonzero words through HashInt, so a CHAR's zero
// padding words never count: equal CHAR values of different widths route
// alike, as do -0 and +0, whose words are equal. An Int or Date word is
// hashed with its sign flip undone, which keeps the partitions of a hash
// of the value; any other word with its bytes reversed, so that the low
// bits the multiplicative hash mixes into the partition carry a CHAR's
// leading bytes and a Float's sign and exponent.
func (r *Router) route(sc *Scratch, data []byte, w, n int) []int32 {
	g := Grown(sc.g, n)
	sc.g = g
	clear(g)
	if r.dir != nil {
		r.dir.Probe(sc, data, w, r.off, sc.seq(n), g, 1)
	} else if r.mask != 0 {
		x := r.key.readBatch(sc, batch{data: data, w: w, off: r.off, sel: sc.seq(n)})
		for j := range g {
			h := uint64(0)
			for i := range r.key.words {
				v := bits.ReverseBytes64(x[i*n+j])
				if r.key.words[i].enc == encInt {
					v = x[i*n+j] ^ 1<<63
				}
				if v != 0 {
					h = HashInt(int64(h ^ v))
				}
			}
			g[j] = int32(h & r.mask)
		}
	}
	return g
}

// HashInt is a Fibonacci multiplicative hash over a 64-bit key.
func HashInt(v int64) uint64 {
	x := uint64(v) * 0x9E3779B97F4A7C15
	return x ^ (x >> 29)
}
