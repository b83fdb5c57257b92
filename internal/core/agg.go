package core

import (
	"cmp"
	"math"
	"sort"

	"hique/internal/btree"
	"hique/internal/catalog"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/types"
)

// Accum is the accumulator state of every aggregation algorithm, laid out
// as the flat arrays of the paper's Figure 4: aggregate idx of group g
// lives at g*nAggs+idx, and tuples[g] counts the group's tuples — COUNT(*)
// and, under map aggregation, the presence marker. Sort and hybrid
// aggregation hold one open group at a time: the one-group instance.
// The general walk allocates one per run; the fused pipelines pool theirs.
type Accum struct {
	sumI, cnt, minI, maxI []int64
	sumF, minF, maxF      []float64
	tuples                []int64
	nAggs                 int
}

// Reset sizes the state for groups × aggs slots, reusing capacity, and
// sets every slot to its aggregate's identity value.
func (a *Accum) Reset(groups, aggs int) {
	n := groups * aggs
	a.nAggs = aggs
	a.sumI, a.cnt = fill(a.sumI, n, 0), fill(a.cnt, n, 0)
	a.minI, a.maxI = fill(a.minI, n, math.MaxInt64), fill(a.maxI, n, math.MinInt64)
	a.sumF = fill(a.sumF, n, 0)
	a.minF, a.maxF = fill(a.minF, n, math.Inf(1)), fill(a.maxF, n, math.Inf(-1))
	a.tuples = fill(a.tuples, groups, 0)
}

func fill[T int64 | float64](s []T, n int, v T) []T {
	if cap(s) < n {
		s = make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// AggUpdate is one compiled aggregate update: the function, the
// argument's kind, and the aggregate's position; Reg is the fold
// program's register holding the argument (-1 for COUNT, which reads
// none), and Src and Off locate it, in the terms of the ColumnAt the
// update was compiled with, for a tuple-at-a-time caller.
type AggUpdate struct {
	Func  sql.AggFunc
	Float bool
	Idx   int
	Reg   int
	Src   int8
	Off   int
}

// ColumnAt resolves a staged aggregation column to the tuple a compiled
// read takes it from and the byte offset inside that tuple. The staged
// tuple itself is source 0; the fused join's direct tail resolves to the
// staged join inputs instead, so no aggregation tuple is ever composed.
type ColumnAt func(col int) (src int8, off int)

// compileUpdates compiles each aggregate's update, and into args the
// program computing its argument from a tuple of the aggregation
// stage's input schema in: a plain copy is a load of the input column, a
// computed column its expression.
func compileUpdates(a *plan.Agg, in *types.Schema, at ColumnAt, args *vecProg) []AggUpdate {
	ups := make([]AggUpdate, 0, len(a.Aggs))
	for i := range a.Aggs {
		spec := &a.Aggs[i]
		if spec.Star {
			continue // covered by tuples
		}
		u := AggUpdate{Func: spec.Func, Idx: i, Reg: -1, Float: a.Input.Schema.Column(spec.Col).Kind == types.Float}
		u.Src, u.Off = at(spec.Col)
		if c := &a.Input.Cols[spec.Col]; spec.Func != sql.AggCount {
			e := c.Compute
			if e == nil {
				e = &plan.ColExpr{Col: c.Source, K: in.Column(c.Source).Kind}
			}
			u.Reg = args.expr(e, in, u.Float)
		}
		ups = append(ups, u)
	}
	return ups
}

// update folds one aggregate over a batch: the j-th argument value —
// xf[j] for a Float argument, xi[j] otherwise — into group g[j]'s slot.
// It is the only form of every aggregate function; a tuple-at-a-time
// caller passes a batch of one. The slots see their values in batch
// order, as the tuple-at-a-time loop would add them.
func (a *Accum) update(u *AggUpdate, g []int32, xf []float64, xi []int64) {
	n, i := a.nAggs, u.Idx
	if u.Func == sql.AggCount || u.Func == sql.AggAvg {
		for _, gi := range g {
			a.cnt[int(gi)*n+i]++
		}
	}
	switch {
	case u.Func == sql.AggCount:
	case u.Func == sql.AggAvg && !u.Float:
		xi = xi[:len(g)]
		for j, gi := range g {
			a.sumF[int(gi)*n+i] += float64(xi[j])
		}
	case u.Float:
		foldInto(u.Func, a.sumF, a.minF, a.maxF, g, xf, n, i)
	default:
		foldInto(u.Func, a.sumI, a.minI, a.maxI, g, xi, n, i)
	}
}

// foldInto folds x[j] into slot g[j]*n+i of the array fn keeps: a sum
// (SUM, and AVG over floats), a minimum or a maximum.
func foldInto[T int64 | float64](fn sql.AggFunc, sum, lo, hi []T, g []int32, x []T, n, i int) {
	x = x[:len(g)]
	switch fn {
	case sql.AggMin:
		for j, gi := range g {
			if s := int(gi)*n + i; x[j] < lo[s] {
				lo[s] = x[j]
			}
		}
	case sql.AggMax:
		for j, gi := range g {
			if s := int(gi)*n + i; x[j] > hi[s] {
				hi[s] = x[j]
			}
		}
	default:
		for j, gi := range g {
			sum[int(gi)*n+i] += x[j]
		}
	}
}

// Add folds one staged tuple into group g: a batch of one.
func (a *Accum) Add(ups []AggUpdate, g int, t []byte) {
	a.tuples[g]++
	for i := range ups {
		a.addOne(&ups[i], g, t)
	}
}

// AddFrom folds one joined tuple set into group g without staging it:
// each update reads the cursor's tuple of the input it was compiled
// against.
func (a *Accum) AddFrom(ups []AggUpdate, g int, c *Cursor) {
	a.tuples[g]++
	for i := range ups {
		a.addOne(&ups[i], g, c.Tuple(int(ups[i].Src)))
	}
}

// addOne applies update u to group g, reading the argument at u.Off in t.
func (a *Accum) addOne(u *AggUpdate, g int, t []byte) {
	gs, xf, xi := [1]int32{int32(g)}, [1]float64{}, [1]int64{}
	if u.Reg >= 0 && u.Float {
		xf[0] = types.GetFloat(t, u.Off)
	} else if u.Reg >= 0 {
		xi[0] = types.GetInt(t, u.Off)
	}
	a.update(u, gs[:], xf[:], xi[:])
}

// Merge folds src's accumulators into a: per-slot adds for SUM/COUNT and
// min/max folds — O(groups × aggs) whatever the row count, the payoff of
// the flat value-directory layout. Empty slots hold the accumulators'
// identity values, so a blanket merge is exact.
func (a *Accum) Merge(src *Accum) {
	for g, n := range src.tuples {
		a.tuples[g] += n
	}
	for i := range src.sumI {
		a.sumI[i] += src.sumI[i]
		a.cnt[i] += src.cnt[i]
		a.sumF[i] += src.sumF[i]
		a.minI[i] = min(a.minI[i], src.minI[i])
		a.maxI[i] = max(a.maxI[i], src.maxI[i])
		// Floats fold with the update's own comparison, which never
		// selects a NaN; the min/max builtins would propagate one.
		if src.minF[i] < a.minF[i] {
			a.minF[i] = src.minF[i]
		}
		if src.maxF[i] > a.maxF[i] {
			a.maxF[i] = src.maxF[i]
		}
	}
}

// aggOut places one aggregate's final value in the output tuple.
type aggOut struct {
	fn      sql.AggFunc
	star    bool
	isFloat bool // the staged argument column is Float
	idx     int  // aggregate position
	dstOff  int
}

// finalise writes aggregate o of group g into its output slot.
func (a *Accum) finalise(o *aggOut, g int, dst []byte) {
	i := g*a.nAggs + o.idx
	switch o.fn {
	case sql.AggSum:
		if o.isFloat {
			types.PutFloat(dst, o.dstOff, a.sumF[i])
		} else {
			types.PutInt(dst, o.dstOff, a.sumI[i])
		}
	case sql.AggAvg:
		if a.cnt[i] > 0 {
			types.PutFloat(dst, o.dstOff, a.sumF[i]/float64(a.cnt[i]))
		} else {
			types.PutFloat(dst, o.dstOff, 0)
		}
	case sql.AggCount:
		if o.star {
			types.PutInt(dst, o.dstOff, a.tuples[g])
		} else {
			types.PutInt(dst, o.dstOff, a.cnt[i])
		}
	case sql.AggMin:
		if o.isFloat {
			types.PutFloat(dst, o.dstOff, a.minF[i])
		} else {
			types.PutInt(dst, o.dstOff, a.minI[i])
		}
	case sql.AggMax:
		if o.isFloat {
			types.PutFloat(dst, o.dstOff, a.maxF[i])
		} else {
			types.PutInt(dst, o.dstOff, a.maxI[i])
		}
	}
}

// GroupProbe is one grouping attribute's value-directory probe, with its
// Figure 4 stride. Src and Off locate the attribute in the terms of the
// program's ColumnAt, In in a tuple of the aggregation stage's input.
type GroupProbe struct {
	Dir     *Dir
	Src     int8
	Off, In int
	Stride  int32
}

// Locate applies the Figure 4 offset formula to one tuple, a batch of
// one: the sum of the directory indexes of t's grouping values times
// their strides, or -1 when a value is outside its directory (stale
// statistics; the tuple is skipped).
func Locate(sc *Scratch, probes []GroupProbe, t []byte) int32 {
	var g [1]int32
	for i := range probes {
		probes[i].Dir.Probe(sc, t, 0, probes[i].Off, sc.One(), g[:], probes[i].Stride)
	}
	return g[0]
}

// AggProgram is an aggregation descriptor compiled once per plan: the
// updates and the program computing their arguments, the group-emission
// program, and — under map aggregation — the directory probes and group
// geometry. It holds no execution state; every method takes the Accum
// or GroupStream it writes to, so the general walk and the fused
// pipelines (caller-only and per-worker alike) run the same code over
// their own state.
type AggProgram struct {
	agg     *plan.Agg
	NAggs   int
	Updates []AggUpdate
	args    vecProg
	outs    []aggOut

	// Sort and hybrid aggregation: the grouping key, and the group
	// columns' copies from a representative staged tuple.
	group  Key
	copies []CopyRange

	// Map aggregation: one probe per grouping attribute, and the size of
	// the group space (the product of the directory sizes).
	Probes  []GroupProbe
	NGroups int
}

// CompileAgg compiles the descriptor over in, the schema of the tuples
// its input stage reads, which a fold reads. at resolves the staged
// columns the tuple-at-a-time updates and probes read; nil means the
// staged tuple itself.
func CompileAgg(a *plan.Agg, in *types.Schema, at ColumnAt) *AggProgram {
	staged := a.Input.Schema
	if at == nil {
		at = func(col int) (int8, int) { return 0, staged.Offset(col) }
	}
	p := &AggProgram{
		agg:   a,
		NAggs: len(a.Aggs),
		outs:  make([]aggOut, 0, len(a.Aggs)),
	}
	p.Updates = compileUpdates(a, in, at, &p.args)
	mapped := a.Alg == plan.MapAggregation
	if mapped {
		// offset(v1..vn) = sum of directory indexes times the product of
		// later directory sizes.
		p.Probes = make([]GroupProbe, len(a.GroupCols))
		p.NGroups = 1
		for i := len(a.GroupCols) - 1; i >= 0; i-- {
			// A grouping column is a plain copy (the planner stages
			// columns, not expressions, to group on).
			dir := DirOf(staged.Column(a.GroupCols[i]), a.Directories[i])
			pr := GroupProbe{Dir: dir, In: in.Offset(a.Input.Cols[a.GroupCols[i]].Source), Stride: int32(p.NGroups)}
			pr.Src, pr.Off = at(a.GroupCols[i])
			p.Probes[i] = pr
			p.NGroups *= a.Directories[i].Len()
		}
	} else {
		p.group = CompileKey(staged, a.GroupCols)
		p.copies = make([]CopyRange, 0, len(a.GroupCols))
		if len(a.GroupCols) == 0 {
			// A group-less aggregate is also the one-group, no-probe map:
			// Locate yields slot 0 and EmitMapGroups its single row.
			p.NGroups = 1
		}
	}
	for pos, ref := range a.Output {
		if ref.IsAgg {
			spec := &a.Aggs[ref.Index]
			p.outs = append(p.outs, aggOut{
				fn: spec.Func, star: spec.Star, idx: ref.Index, dstOff: a.Schema.Offset(pos),
				isFloat: spec.Col >= 0 && staged.Column(spec.Col).Kind == types.Float,
			})
		} else if !mapped {
			src := a.GroupCols[ref.Index]
			p.copies = append(p.copies, CopyRange{staged.Offset(src), a.Schema.Offset(pos), staged.Column(src).Size})
		}
	}
	return p
}

// emit writes group g's output tuple: group columns from the
// representative staged tuple, aggregates finalised from the state.
func (p *AggProgram) emit(acc *Accum, g int, rep, dst []byte) {
	CopyInto(dst, rep, p.copies)
	for i := range p.outs {
		acc.finalise(&p.outs[i], g, dst)
	}
}

// EmitMapGroups writes a map aggregation's groups in directory order
// (which is sorted order — an interesting order for a downstream ORDER
// BY), skipping empty slots and stopping at limit groups (-1: no limit).
func (p *AggProgram) EmitMapGroups(acc *Accum, out *storage.Table, limit int) {
	emitted := 0
	for g := 0; g < p.NGroups && (limit < 0 || emitted < limit); g++ {
		if acc.tuples[g] == 0 {
			continue
		}
		// A group column is the directory value at index g / stride mod
		// the directory's size.
		dst := out.AppendSlot()
		for pos, ref := range p.agg.Output {
			if !ref.IsAgg {
				dir := p.agg.Directories[ref.Index]
				p.agg.Schema.PutDatum(dst, pos, dir.Datum(g/int(p.Probes[ref.Index].Stride)%dir.Len()))
			}
		}
		p.emit(acc, g, nil, dst)
		emitted++
	}
}

// GroupStream is the state of one pass over group-ordered staged tuples
// (sort and hybrid aggregation): the open group's accumulator and
// representative tuple, and the number of groups emitted so far.
type GroupStream struct {
	acc Accum
	rep []byte
	// open tracks whether a group is in progress; a nil-rep sentinel
	// would misread zero-width tuples (group-less aggregates), whose
	// representative is legitimately empty.
	open   bool
	groups int
}

// Reset readies the stream for one execution of p.
func (gs *GroupStream) Reset(p *AggProgram) {
	gs.acc.Reset(1, p.NAggs)
	gs.open, gs.groups = false, 0
}

// Push feeds one staged tuple, ordered by group, into the stream,
// emitting the previous group into out when it closes. It returns false
// once limit groups have been emitted (-1: no limit).
func (p *AggProgram) Push(gs *GroupStream, t []byte, out *storage.Table, limit int) bool {
	if gs.open && p.group.Compare(gs.rep, &p.group, t) != 0 && !p.Flush(gs, out, limit) {
		return false
	}
	if !gs.open {
		gs.rep = append(gs.rep[:0], t...)
		gs.open = true
	}
	gs.acc.Add(p.Updates, 0, t)
	return true
}

// Flush closes the open group, if any: at the end of the input, and at a
// partition boundary (hash partitioning routes whole groups to one
// partition, so a group never spans parts). It returns false once limit
// groups have been emitted.
func (p *AggProgram) Flush(gs *GroupStream, out *storage.Table, limit int) bool {
	if gs.open {
		p.emit(&gs.acc, 0, gs.rep, out.AppendSlot())
		gs.acc.Reset(1, p.NAggs)
		gs.open = false
		gs.groups++
	}
	return limit < 0 || gs.groups < limit
}

// StreamParts streams staged parts, each ordered by group, through gs into
// out — one linear scan per part, emitting each group as it closes (§V-B)
// and closing the open group at every part boundary. It returns false
// once limit groups have been emitted.
func (p *AggProgram) StreamParts(gs *GroupStream, parts [][][]byte, out *storage.Table, limit int) bool {
	for _, part := range parts {
		for _, t := range part {
			if !p.Push(gs, t, out, limit) {
				return false
			}
		}
		if !p.Flush(gs, out, limit) {
			return false
		}
	}
	return true
}

// FoldPages is map aggregation's single pass (Figure 4, no staging) over
// pages [lo, hi) of t: skip the pages whose bounds s's predicates
// exclude, filter each page read into a selection vector, and fold its
// survivors (FoldBatch). It returns the number of tuples folded and the
// pages it read and skipped.
func (p *AggProgram) FoldPages(acc *Accum, s *Stager, t *storage.Table, lo, hi int, params []types.Datum) (int, Pages) {
	n := 0
	var tally Pages
	sc := GetScratch()
	defer sc.Put()
	for pi := lo; pi < hi; pi++ {
		if len(s.Prune) > 0 && !PageMayMatch(s.Prune, t, pi, params) {
			tally.Skipped++
			continue
		}
		pg := t.Page(pi)
		tally.Read++
		tally.Rows += pg.NumTuples()
		n += p.FoldBatch(acc, sc, pg.Data(), s.InWidth, sc.Select(s.Preds, pg.Data(), pg.NumTuples(), s.InWidth, params))
	}
	return n, tally
}

// FoldProbe is FoldPages over the tuples of t the index entries for key
// point at — an index-probed map aggregation's single pass, a batch of
// one per tuple — and returns how many the probe fetched.
func (p *AggProgram) FoldProbe(acc *Accum, s *Stager, t *storage.Table, tree *btree.Tree, key int64, params []types.Datum) int {
	sc := GetScratch()
	defer sc.Put()
	return Probe(t, tree, key, func(tup []byte) bool {
		var one [1]int32
		p.FoldBatch(acc, sc, tup, 0, SelectPage(s.Preds, tup, 1, s.InWidth, params, one[:0]))
		return true
	})
}

// FoldBatch folds the tuples of data (width w, in the aggregation stage's
// input schema) that sel selects into acc, and returns how many it
// folded: one loop per grouping attribute builds their group slots in the
// scratch (slot 0 for a group-less aggregate), the tuples a directory
// misses are compacted out of sel, the argument program computes every
// aggregate's argument into registers, and one loop per aggregate
// updates the arrays. It overwrites sel.
func (p *AggProgram) FoldBatch(acc *Accum, sc *Scratch, data []byte, w int, sel []int32) int {
	if len(sel) == 0 {
		return 0 // most pages of a selective scan: skip the loops' set-up
	}
	g := Grown(sc.g, len(sel))
	sc.g = g
	clear(g)
	for i := range p.Probes {
		pr := &p.Probes[i]
		pr.Dir.Probe(sc, data, w, pr.In, sel, g, pr.Stride)
	}
	if len(p.Probes) > 0 {
		k := 0
		for j, gi := range g {
			sel[k], g[k] = sel[j], gi
			k += b2i(gi >= 0)
		}
		sel, g = sel[:k], g[:k]
	}
	p.args.run(sc, data, w, sel)
	for _, gi := range g {
		acc.tuples[gi]++
	}
	for i := range p.Updates {
		if u := &p.Updates[i]; u.Float {
			acc.update(u, g, sc.floats(u.Reg), nil)
		} else {
			acc.update(u, g, nil, sc.ints(u.Reg))
		}
	}
	return len(g)
}

// Dir is a value directory compiled for lookup (the paper's
// value-partition map, §V-B): the sorted, distinct directory values in
// the encoding of the column probed (Key), in one of two forms, neither
// of which knows the column's kind. A one-word key whose values span few
// codes, once the encoding's always-zero low bits are shifted out (a
// CHAR(n < 8) word has 64−8n of them), probes a rank table: a code less
// the smallest, shifted, indexes the value's directory index. Every other
// key — a Float, a sparse Int, a CHAR of any width — binary-searches the
// values' fixed-width word tuples.
type Dir struct {
	key   Key // the probed column's, at offset 0
	lo    uint64
	shift uint
	rank  []int32  // the rank table, each index plus one (0: a gap); nil for the search form
	vals  []uint64 // the search form's word tuples, ascending
	idx   []int32  // the directory index of each word tuple
}

// DirOf is the lookup of the value directory snapshot d compiled for
// column c: a fine partition route drops a tuple whose key is absent (it
// cannot join), map aggregation skips it. It is compiled on the first
// probe of d by a column of c's kind and width and kept on the snapshot,
// so every plan holding d shares it.
func DirOf(c types.Column, d *catalog.Directory) *Dir {
	return d.Compiled(c, compileDir).(*Dir)
}

// compileDir compiles column c's lookup of dir: each value is encoded as
// the column stores it, and one the column cannot hold (a CHAR value
// wider than it) no probe can equal, so it is left out. An empty
// directory misses everything.
func compileDir(c types.Column, dir *catalog.Directory) any {
	s := types.NewSchema(c)
	d := &Dir{key: CompileKey(s, []int{0})}
	t := make([]byte, s.TupleSize())
	for i := 0; i < dir.Len(); i++ {
		if !putDirValue(t, c, dir, i) {
			continue
		}
		for k := range d.key.words {
			d.vals = append(d.vals, d.key.words[k].at(t))
		}
		d.idx = append(d.idx, int32(i))
	}
	if len(d.idx) == 0 || len(d.key.words) != 1 {
		return d
	}
	d.shift = uint(64 - 8*d.key.words[0].n)
	if span := (d.vals[len(d.vals)-1] - d.vals[0]) >> d.shift; span < uint64(4*len(d.idx)+256) {
		d.lo, d.rank = d.vals[0], make([]int32, span+1)
		for i, x := range d.vals {
			d.rank[(x-d.lo)>>d.shift] = d.idx[i] + 1
		}
		d.vals, d.idx = nil, nil
	}
	return d
}

// putDirValue writes value i of dir into t, a tuple of column c alone,
// and reports whether c holds it (c stores a longer CHAR value cut).
func putDirValue(t []byte, c types.Column, dir *catalog.Directory, i int) bool {
	switch c.Kind {
	case types.String:
		types.PutString(t, 0, c.Size, dir.Strs[i])
		return len(dir.Strs[i]) <= c.Size
	case types.Float:
		types.PutFloat(t, 0, dir.Floats[i])
	default:
		types.PutInt(t, 0, dir.Ints[i])
	}
	return true
}

// DirWords is the key words of each of dir's values as column c encodes
// them, value after value in directory order, c's key Words() of them
// each: the directory as data for the emitted source's probe
// (runtime.DirIndex), which reads every word of a CHAR column.
func DirWords(c types.Column, dir *catalog.Directory) []uint64 {
	s := types.NewSchema(c)
	k, t := CompileKey(s, []int{0}), make([]byte, s.TupleSize())
	out := make([]uint64, 0, dir.Len()*k.Words())
	for i := range dir.Len() {
		putDirValue(t, c, dir, i)
		for _, kw := range k.words {
			out = append(out, kw.at(t))
		}
	}
	return out
}

// Probe is one grouping attribute's loop over a batch: it adds stride
// times the directory index of the key at off in each tuple of data
// (width w) that sel selects to that tuple's group slot g[j] — the
// Figure 4 offset formula, one attribute at a time — and sets the slot
// to -1, for good, when the key is absent. The keys' words are read in
// one batch (Key.readBatch). A code below the rank table's smallest wraps
// past the table's end, so one bound test covers both sides.
func (d *Dir) Probe(sc *Scratch, data []byte, w, off int, sel, g []int32, stride int32) {
	g = g[:len(sel)]
	x := d.key.readBatch(sc, batch{data: data, w: w, off: off, sel: sel})
	if rank, lo, shift := d.rank, d.lo, d.shift; rank != nil {
		for j, v := range x[:len(g)] {
			r, di := (v-lo)>>shift, int32(-1)
			if r < uint64(len(rank)) {
				di = rank[r] - 1
			}
			g[j] = place(g[j], di, stride)
		}
		return
	}
	for j := range g {
		g[j] = place(g[j], d.search(x, len(g), j), stride)
	}
}

// search is the directory index of tuple j's key, word i of which is
// x[i*n+j], or -1: a binary search over the values' word tuples.
func (d *Dir) search(x []uint64, n, j int) int32 {
	h := sort.Search(len(d.idx), func(h int) bool { return d.cmp(h, x, n, j) >= 0 })
	if h < len(d.idx) && d.cmp(h, x, n, j) == 0 {
		return d.idx[h]
	}
	return -1
}

// cmp three-way compares value h's words with tuple j's key.
func (d *Dir) cmp(h int, x []uint64, n, j int) int {
	nw := len(d.key.words)
	for i, v := range d.vals[h*nw : h*nw+nw] {
		if c := cmp.Compare(v, x[i*n+j]); c != 0 {
			return c
		}
	}
	return 0
}

// place adds directory index di times stride to group slot s: -1 when
// either is -1.
func place(s, di, stride int32) int32 {
	return (s + di*stride) | (s|di)>>31
}
