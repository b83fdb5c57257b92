package core

import (
	"math"

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

// AggUpdate is one compiled per-tuple accumulator update: Fn folds the
// aggregate argument it reads from t into the slots of the group at base.
// Src names the tuple Fn must be handed, in the terms of the ColumnAt the
// update was compiled with.
type AggUpdate struct {
	Src int8
	Fn  func(a *Accum, base int, t []byte)
}

// ColumnAt resolves a staged aggregation column to the tuple a compiled
// read takes it from and the byte offset inside that tuple. The staged
// tuple itself is source 0; the fused join's direct tail resolves to the
// staged join inputs instead, so no aggregation tuple is ever composed.
type ColumnAt func(col int) (src int8, off int)

// compileUpdates builds the per-tuple update of each aggregate: inlined,
// type-specialised, no dispatch (the paper stresses the importance of
// call-free aggregation inner loops). The state is passed in, not
// captured, so one compiled program serves concurrent executions.
func compileUpdates(a *plan.Agg, staged *types.Schema, at ColumnAt) []AggUpdate {
	ups := make([]AggUpdate, 0, len(a.Aggs))
	for i := range a.Aggs {
		spec := &a.Aggs[i]
		if spec.Star {
			continue // covered by tuples
		}
		idx := i
		src, off := at(spec.Col)
		isFloat := staged.Column(spec.Col).Kind == types.Float
		var fn func(a *Accum, base int, t []byte)
		switch spec.Func {
		case sql.AggSum:
			if isFloat {
				fn = func(a *Accum, base int, t []byte) { a.sumF[base+idx] += types.GetFloat(t, off) }
			} else {
				fn = func(a *Accum, base int, t []byte) { a.sumI[base+idx] += types.GetInt(t, off) }
			}
		case sql.AggAvg:
			if isFloat {
				fn = func(a *Accum, base int, t []byte) { a.sumF[base+idx] += types.GetFloat(t, off); a.cnt[base+idx]++ }
			} else {
				fn = func(a *Accum, base int, t []byte) {
					a.sumF[base+idx] += float64(types.GetInt(t, off))
					a.cnt[base+idx]++
				}
			}
		case sql.AggCount:
			fn = func(a *Accum, base int, t []byte) { a.cnt[base+idx]++ }
		case sql.AggMin:
			if isFloat {
				fn = func(a *Accum, base int, t []byte) {
					if v := types.GetFloat(t, off); v < a.minF[base+idx] {
						a.minF[base+idx] = v
					}
				}
			} else {
				fn = func(a *Accum, base int, t []byte) {
					if v := types.GetInt(t, off); v < a.minI[base+idx] {
						a.minI[base+idx] = v
					}
				}
			}
		case sql.AggMax:
			if isFloat {
				fn = func(a *Accum, base int, t []byte) {
					if v := types.GetFloat(t, off); v > a.maxF[base+idx] {
						a.maxF[base+idx] = v
					}
				}
			} else {
				fn = func(a *Accum, base int, t []byte) {
					if v := types.GetInt(t, off); v > a.maxI[base+idx] {
						a.maxI[base+idx] = v
					}
				}
			}
		}
		ups = append(ups, AggUpdate{Src: src, Fn: fn})
	}
	return ups
}

// Add folds one staged tuple into group g.
func (a *Accum) Add(ups []AggUpdate, g int, t []byte) {
	a.tuples[g]++
	base := g * a.nAggs
	for _, u := range ups {
		u.Fn(a, base, t)
	}
}

// AddFrom folds one joined tuple set into group g without staging it:
// each update reads the cursor's tuple of the input it was compiled
// against.
func (a *Accum) AddFrom(ups []AggUpdate, g int, c *Cursor) {
	a.tuples[g]++
	base := g * a.nAggs
	for _, u := range ups {
		u.Fn(a, base, c.Tuple(int(u.Src)))
	}
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

// GroupProbe is one grouping attribute's value-directory probe, bound to
// its source tuple and pre-multiplied by its Figure 4 stride.
type GroupProbe struct {
	Src    int8
	Fn     func(t []byte) int32
	Stride int32
}

// Locate applies the Figure 4 offset formula: the sum of the directory
// indexes of t's grouping values times their strides, or -1 when a value
// is outside its directory (stale statistics; the tuple is skipped).
func Locate(probes []GroupProbe, t []byte) int32 {
	var g int32
	for i := range probes {
		di := probes[i].Fn(t)
		if di < 0 {
			return -1
		}
		g += di * probes[i].Stride
	}
	return g
}

// AggProgram is an aggregation descriptor compiled once per plan: the
// per-tuple updates, the group-emission program, and — under map
// aggregation — the directory probes and group geometry. It holds no
// execution state; every method takes the Accum or GroupStream it
// writes to, so the general walk and the fused pipelines (caller-only
// and per-worker alike) run the same code over their own state.
type AggProgram struct {
	agg     *plan.Agg
	NAggs   int
	Updates []AggUpdate
	outs    []aggOut

	// Sort and hybrid aggregation: the grouping comparator, and the group
	// columns' copies from a representative staged tuple.
	sameGroup Compare
	copies    []CopyRange

	// Map aggregation: one probe per grouping attribute, and the size of
	// the group space (the product of the directory sizes).
	Probes  []GroupProbe
	NGroups int
}

// CompileAgg compiles the descriptor over the staged schema. at resolves
// the columns the updates and probes read; nil means the staged tuple
// itself. The result is nil when a grouping attribute's kind has no
// directory form.
func CompileAgg(a *plan.Agg, staged *types.Schema, at ColumnAt) *AggProgram {
	if at == nil {
		at = func(col int) (int8, int) { return 0, staged.Offset(col) }
	}
	p := &AggProgram{
		agg:     a,
		NAggs:   len(a.Aggs),
		Updates: compileUpdates(a, staged, at),
		outs:    make([]aggOut, 0, len(a.Aggs)),
	}
	mapped := a.Alg == plan.MapAggregation
	if mapped {
		// offset(v1..vn) = sum of directory indexes times the product of
		// later directory sizes.
		p.Probes = make([]GroupProbe, len(a.GroupCols))
		p.NGroups = 1
		for i := len(a.GroupCols) - 1; i >= 0; i-- {
			c := staged.Column(a.GroupCols[i])
			src, off := at(a.GroupCols[i])
			fn := DirProbe(c.Kind, off, c.Size, a.Directories[i])
			if fn == nil {
				return nil
			}
			p.Probes[i] = GroupProbe{Src: src, Fn: fn, Stride: int32(p.NGroups)}
			p.NGroups *= len(a.Directories[i])
		}
	} else {
		p.sameGroup = MakeKeyCompare(staged, a.GroupCols)
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
		// A group column is the directory datum at index g / stride mod
		// the directory's size.
		dst := out.AppendSlot()
		for pos, ref := range p.agg.Output {
			if !ref.IsAgg {
				dir := p.agg.Directories[ref.Index]
				p.agg.Schema.PutDatum(dst, pos, dir[g/int(p.Probes[ref.Index].Stride)%len(dir)])
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
	if gs.open && p.sameGroup(gs.rep, t) != 0 && !p.Flush(gs, out, limit) {
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
// exclude, filter each page read into a selection vector, project each
// survivor through s into buf, locate its group through the value
// directories (slot 0 for a group-less aggregate), and update acc in
// place. It returns the number of tuples
// folded and the pages it read and skipped.
func (p *AggProgram) FoldPages(acc *Accum, s *Stager, buf []byte, t *storage.Table, lo, hi int, params []types.Datum) (int, Pages) {
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
		n += p.fold(acc, s, buf, pg.Data(), sc.Select(s.Preds, pg.Data(), pg.NumTuples(), s.InWidth, params))
	}
	return n, tally
}

// fold folds the tuples of data that sel selects — a page's survivors,
// or the one tuple an index probe fetched.
func (p *AggProgram) fold(acc *Accum, s *Stager, buf, data []byte, sel []int32) int {
	w, project, probes, updates := s.InWidth, s.Project, p.Probes, p.Updates
	folded := 0
	for _, k := range sel {
		base := int(k) * w
		project(data[base:base+w:base+w], buf)
		if g := Locate(probes, buf); g >= 0 {
			acc.Add(updates, int(g), buf)
			folded++
		}
	}
	return folded
}

// DirProbe compiles the lookup of the key at off in a tuple against a
// sorted, distinct value directory (the paper's value-partition map,
// §V-B): the key's directory index, or -1 when it is absent — a fine
// partition route drops such a tuple (it cannot join), map aggregation
// skips it. An empty directory routes everything to -1. The result is
// nil when the kind has no directory form.
func DirProbe(kind types.Kind, off, size int, dir []types.Datum) func(t []byte) int32 {
	switch kind {
	case types.Int, types.Date:
		vals := make([]int64, len(dir))
		for i, d := range dir {
			vals[i] = d.I
		}
		// Dense contiguous domains (surrogate keys) probe by offset; the
		// directory is sorted and distinct, so span == n-1 proves it, and
		// the offset is the index the search would find.
		if n := len(vals); n > 0 && vals[n-1]-vals[0] == int64(n-1) {
			lo, hi := vals[0], int64(n)
			return func(t []byte) int32 {
				v := types.GetInt(t, off) - lo
				if v < 0 || v >= hi {
					return -1
				}
				return int32(v)
			}
		}
		return func(t []byte) int32 {
			v := types.GetInt(t, off)
			lo, hi := 0, len(vals)
			for lo < hi {
				mid := (lo + hi) / 2
				if vals[mid] < v {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo < len(vals) && vals[lo] == v {
				return int32(lo)
			}
			return -1
		}
	case types.String:
		if size == 1 {
			// CHAR(1) is a dense domain: the byte indexes a table of the
			// indexes the search below would find.
			var tab [256]int32
			for b := range tab {
				tab[b] = -1
			}
			for i, d := range dir {
				if len(d.S) == 0 {
					tab[0] = int32(i)
				} else if len(d.S) == 1 {
					tab[d.S[0]] = int32(i)
				}
			}
			return func(t []byte) int32 { return tab[t[off]] }
		}
		vals := make([]string, len(dir))
		for i, d := range dir {
			vals[i] = d.S
		}
		return func(t []byte) int32 {
			v := types.GetString(t, off, size)
			lo, hi := 0, len(vals)
			for lo < hi {
				mid := (lo + hi) / 2
				if vals[mid] < v {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo < len(vals) && vals[lo] == v {
				return int32(lo)
			}
			return -1
		}
	}
	return nil
}
