package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hique/internal/catalog"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/types"
)

// The oracle of the page kernels is the tuple-at-a-time evaluation they
// replaced: a closure per expression node, a per-tuple projector, a
// per-tuple directory probe located through the Figure 4 formula, and a
// closure per aggregate update. The kernels must leave every accumulator
// slot bit-identical to it.

func refFloatExpr(e plan.Expr, s *types.Schema) func(t []byte) float64 {
	switch v := e.(type) {
	case *plan.ColExpr:
		off := s.Offset(v.Col)
		if v.K == types.Float {
			return func(t []byte) float64 { return types.GetFloat(t, off) }
		}
		return func(t []byte) float64 { return float64(types.GetInt(t, off)) }
	case *plan.ConstExpr:
		c := v.D.F
		if v.D.Kind != types.Float {
			c = float64(v.D.I)
		}
		return func([]byte) float64 { return c }
	case *plan.ArithExpr:
		l, r := refFloatExpr(v.L, s), refFloatExpr(v.R, s)
		switch v.Op {
		case sql.OpAdd:
			return func(t []byte) float64 { return l(t) + r(t) }
		case sql.OpSub:
			return func(t []byte) float64 { return l(t) - r(t) }
		case sql.OpMul:
			return func(t []byte) float64 { return l(t) * r(t) }
		case sql.OpDiv:
			return func(t []byte) float64 { return l(t) / r(t) }
		}
	}
	panic(fmt.Sprintf("bad node %T", e))
}

func refIntExpr(e plan.Expr, s *types.Schema) func(t []byte) int64 {
	switch v := e.(type) {
	case *plan.ColExpr:
		off := s.Offset(v.Col)
		return func(t []byte) int64 { return types.GetInt(t, off) }
	case *plan.ConstExpr:
		c := v.D.I
		return func([]byte) int64 { return c }
	case *plan.ArithExpr:
		l, r := refIntExpr(v.L, s), refIntExpr(v.R, s)
		switch v.Op {
		case sql.OpAdd:
			return func(t []byte) int64 { return l(t) + r(t) }
		case sql.OpSub:
			return func(t []byte) int64 { return l(t) - r(t) }
		case sql.OpMul:
			return func(t []byte) int64 { return l(t) * r(t) }
		}
	}
	panic(fmt.Sprintf("bad node %T", e))
}

// refProjector fills one output tuple from one input tuple.
func refProjector(in *types.Schema, cols []plan.OutputColumn, out *types.Schema) func(src, dst []byte) {
	var steps []func(src, dst []byte)
	for i, c := range cols {
		off := out.Offset(i)
		switch {
		case c.Compute == nil:
			so, size := in.Offset(c.Source), c.Size
			steps = append(steps, func(src, dst []byte) { copy(dst[off:off+size], src[so:so+size]) })
		case c.Compute.Kind() == types.Float:
			eval := refFloatExpr(c.Compute, in)
			steps = append(steps, func(src, dst []byte) { types.PutFloat(dst, off, eval(src)) })
		default:
			eval := refIntExpr(c.Compute, in)
			steps = append(steps, func(src, dst []byte) { types.PutInt(dst, off, eval(src)) })
		}
	}
	return func(src, dst []byte) {
		for _, s := range steps {
			s(src, dst)
		}
	}
}

// refDirProbe is the per-tuple directory lookup of column col: a linear
// search for the value types.Compare calls equal.
func refDirProbe(s *types.Schema, col int, dir *catalog.Directory) func(t []byte) int32 {
	return func(t []byte) int32 {
		for i := 0; i < dir.Len(); i++ {
			if types.Compare(s.GetDatum(t, col), dir.Datum(i)) == 0 {
				return int32(i)
			}
		}
		return -1
	}
}

// refFolder is the tuple-at-a-time map fold of one aggregation.
type refFolder struct {
	project func(src, dst []byte)
	buf     []byte
	probes  []func(t []byte) int32
	strides []int32
	updates []func(a *Accum, base int, t []byte)
}

func newRefFolder(a *plan.Agg, in *types.Schema) *refFolder {
	st := a.Input.Schema
	r := &refFolder{project: refProjector(in, a.Input.Cols, st), buf: make([]byte, st.TupleSize())}
	stride := int32(1)
	r.probes, r.strides = make([]func([]byte) int32, len(a.GroupCols)), make([]int32, len(a.GroupCols))
	for i := len(a.GroupCols) - 1; i >= 0; i-- {
		r.probes[i] = refDirProbe(st, a.GroupCols[i], a.Directories[i])
		r.strides[i] = stride
		stride *= int32(a.Directories[i].Len())
	}
	for i := range a.Aggs {
		spec := &a.Aggs[i]
		if spec.Star {
			continue
		}
		idx, off := i, st.Offset(spec.Col)
		isFloat := st.Column(spec.Col).Kind == types.Float
		var fn func(a *Accum, base int, t []byte)
		switch {
		case spec.Func == sql.AggCount:
			fn = func(a *Accum, base int, t []byte) { a.cnt[base+idx]++ }
		case spec.Func == sql.AggSum && isFloat:
			fn = func(a *Accum, base int, t []byte) { a.sumF[base+idx] += types.GetFloat(t, off) }
		case spec.Func == sql.AggSum:
			fn = func(a *Accum, base int, t []byte) { a.sumI[base+idx] += types.GetInt(t, off) }
		case spec.Func == sql.AggAvg && isFloat:
			fn = func(a *Accum, base int, t []byte) { a.sumF[base+idx] += types.GetFloat(t, off); a.cnt[base+idx]++ }
		case spec.Func == sql.AggAvg:
			fn = func(a *Accum, base int, t []byte) {
				a.sumF[base+idx] += float64(types.GetInt(t, off))
				a.cnt[base+idx]++
			}
		case spec.Func == sql.AggMin && isFloat:
			fn = func(a *Accum, base int, t []byte) {
				a.minF[base+idx] = refMin(a.minF[base+idx], types.GetFloat(t, off))
			}
		case spec.Func == sql.AggMin:
			fn = func(a *Accum, base int, t []byte) { a.minI[base+idx] = refMin(a.minI[base+idx], types.GetInt(t, off)) }
		case spec.Func == sql.AggMax && isFloat:
			fn = func(a *Accum, base int, t []byte) {
				a.maxF[base+idx] = refMax(a.maxF[base+idx], types.GetFloat(t, off))
			}
		default:
			fn = func(a *Accum, base int, t []byte) { a.maxI[base+idx] = refMax(a.maxI[base+idx], types.GetInt(t, off)) }
		}
		r.updates = append(r.updates, fn)
	}
	return r
}

func refMin[T int64 | float64](cur, v T) T {
	if v < cur {
		return v
	}
	return cur
}

func refMax[T int64 | float64](cur, v T) T {
	if v > cur {
		return v
	}
	return cur
}

// fold is the old per-tuple loop: project, locate, add.
func (r *refFolder) fold(acc *Accum, data []byte, w int, sel []int32) int {
	folded := 0
	for _, k := range sel {
		r.project(data[int(k)*w:int(k)*w+w], r.buf)
		g := int32(0)
		for i, probe := range r.probes {
			di := probe(r.buf)
			if di < 0 {
				g = -1
				break
			}
			g += di * r.strides[i]
		}
		if g < 0 {
			continue
		}
		acc.tuples[g]++
		for _, u := range r.updates {
			u(acc, int(g)*acc.nAggs, r.buf)
		}
		folded++
	}
	return folded
}

// foldSchema is the fold tests' input: a dense, a sparse and a value Int
// column, a Date, CHAR(1) and CHAR(3) columns, two Floats, and a Float and
// a CHAR(16) grouping column.
var foldSchema = types.NewSchema(
	types.Col("k", types.Int), types.Col("sp", types.Int), types.Col("d", types.Date),
	types.CharCol("f", 1), types.CharCol("s", 3), types.Col("x", types.Float),
	types.Col("y", types.Int), types.Col("z", types.Float),
	types.Col("fg", types.Float), types.CharCol("l", 16))

var (
	sparseVals = []int64{-7, 3, 100, 1 << 40} // the last is in no directory
	dateVals   = []int64{9000, 9001, 9500, 12000}
	char1Vals  = []string{"A", "N", "R", "X", ""}
	charNVals  = []string{"ab", "abc", "b", "zz", ""}
	floatVals  = []float64{math.Inf(-1), -2.5, math.Copysign(0, -1), 0, 1.5, 3.25, math.Inf(1)} // 3.25 is in no directory
	char16Vals = []string{"", "alpha", "alphabet-soup-16", "alphabet-soup-1x", "beta", "zz"}    // "alphabet-soup-1x" is in none
)

// foldTable fills a table of n rows from rng; every grouping column
// carries values its directory lacks.
func foldTable(rng *rand.Rand, n int) *storage.Table {
	t := storage.NewTable("fold", foldSchema)
	for i := 0; i < n; i++ {
		t.AppendRow(
			types.IntDatum(int64(rng.Intn(10))),
			types.IntDatum(sparseVals[rng.Intn(len(sparseVals))]),
			types.DateDatum(dateVals[rng.Intn(len(dateVals))]),
			types.StringDatum(char1Vals[rng.Intn(len(char1Vals))]),
			types.StringDatum(charNVals[rng.Intn(len(charNVals))]),
			types.FloatDatum(math.Ldexp(rng.Float64()-0.5, rng.Intn(80)-20)),
			types.IntDatum(rng.Int63n(1<<40)-1<<39),
			types.FloatDatum(float64(rng.Intn(2001)-1000)/10),
			types.FloatDatum(floatVals[rng.Intn(len(floatVals))]),
			types.StringDatum(char16Vals[rng.Intn(len(char16Vals))]))
	}
	return t
}

// foldDirs are the directories of the grouping columns (nil: none).
var foldDirs = [][]types.Datum{
	0: {types.IntDatum(0), types.IntDatum(1), types.IntDatum(2), types.IntDatum(3), types.IntDatum(4), types.IntDatum(5), types.IntDatum(6), types.IntDatum(7)},
	1: {types.IntDatum(-7), types.IntDatum(3), types.IntDatum(100)},
	2: {types.DateDatum(9000), types.DateDatum(9001), types.DateDatum(12000)},
	3: {types.StringDatum(""), types.StringDatum("A"), types.StringDatum("N"), types.StringDatum("R")},
	4: {types.StringDatum("ab"), types.StringDatum("abc"), types.StringDatum("b")},
	8: {types.FloatDatum(math.Inf(-1)), types.FloatDatum(-2.5), types.FloatDatum(0), types.FloatDatum(1.5), types.FloatDatum(math.Inf(1))},
	9: {types.StringDatum(""), types.StringDatum("alpha"), types.StringDatum("alphabet-soup-16"), types.StringDatum("beta"), types.StringDatum("zz")},
}

func col(i int) plan.Expr {
	return &plan.ColExpr{Col: i, Name: foldSchema.Column(i).Name, K: foldSchema.Column(i).Kind}
}

func ic(v int64) plan.Expr   { return &plan.ConstExpr{D: types.IntDatum(v)} }
func fc(v float64) plan.Expr { return &plan.ConstExpr{D: types.FloatDatum(v)} }
func ar(op sql.BinaryOp, l, r plan.Expr) plan.Expr {
	return &plan.ArithExpr{Op: op, L: l, R: r}
}

// foldExprs are the computed arguments: nested Int and Float trees with
// constants on either side, Int leaves under Float nodes, a constant
// subtree, a repeated subexpression and a lone constant.
var foldExprs = []plan.Expr{
	ar(sql.OpMul, ar(sql.OpAdd, col(6), ic(3)), ar(sql.OpSub, col(0), col(6))),
	ar(sql.OpSub, ic(2), ar(sql.OpMul, col(6), col(0))),
	ar(sql.OpMul, ar(sql.OpMul, col(5), ar(sql.OpSub, fc(1), col(7))), ar(sql.OpAdd, fc(1), col(7))),
	ar(sql.OpMul, col(5), ar(sql.OpSub, fc(1), col(7))),
	ar(sql.OpDiv, fc(7.5), ar(sql.OpAdd, col(7), fc(500))),
	ar(sql.OpDiv, ar(sql.OpSub, col(5), col(6)), ar(sql.OpSub, ic(1000), col(0))),
	ar(sql.OpAdd, ar(sql.OpMul, col(6), col(0)), col(5)),
	ar(sql.OpMul, ar(sql.OpAdd, ic(2), ic(3)), col(2)),
	ar(sql.OpSub, col(7), ar(sql.OpSub, fc(1.5), fc(0.25))),
	ar(sql.OpAdd, ic(4), col(0)),
	ar(sql.OpMul, fc(2), col(7)),
	ic(11),
}

// foldArg is one aggregate of a test aggregation: its function, and its
// argument, nil for COUNT(*).
type foldArg struct {
	fn sql.AggFunc
	e  plan.Expr
}

// foldAgg builds a map aggregation over foldSchema grouping on groups,
// with the aggregates args, as the planner lays it out: the grouping
// columns staged first as copies, then one staged column per argument.
func foldAgg(groups []int, args []foldArg) *plan.Agg {
	a := &plan.Agg{Alg: plan.MapAggregation, Input: plan.Stage{Action: plan.StageNone}}
	var staged, result []types.Column
	for i, g := range groups {
		c := foldSchema.Column(g)
		a.Input.Cols = append(a.Input.Cols, plan.OutputColumn{Name: c.Name, Source: g, Kind: c.Kind, Size: c.Size})
		staged, result = append(staged, c), append(result, c)
		a.GroupCols = append(a.GroupCols, i)
		a.Directories = append(a.Directories, snapshot(c.Kind, foldDirs[g]))
		a.Output = append(a.Output, plan.OutputRef{Index: i})
	}
	for i, arg := range args {
		spec := plan.AggSpec{Func: arg.fn, Col: -1, Star: arg.e == nil}
		if arg.e != nil {
			oc := plan.OutputColumn{Name: fmt.Sprintf("a%d", i), Source: -1, Compute: arg.e, Kind: arg.e.Kind(), Size: 8}
			if c, ok := arg.e.(*plan.ColExpr); ok {
				oc.Source, oc.Compute = c.Col, nil
			}
			spec.Col = len(a.Input.Cols)
			a.Input.Cols = append(a.Input.Cols, oc)
			staged = append(staged, types.Column{Name: oc.Name, Kind: oc.Kind, Size: 8})
		}
		a.Aggs = append(a.Aggs, spec)
		a.Output = append(a.Output, plan.OutputRef{IsAgg: true, Index: i})
		result = append(result, types.Col(fmt.Sprintf("r%d", i), types.Float))
	}
	a.Input.Schema, a.Schema = types.NewSchema(staged...), types.NewSchema(result...)
	return a
}

// everyAgg is every aggregate function over an Int, a Date and a Float
// column and over computed Int and Float arguments, with COUNT(col),
// COUNT(*) and COUNT over a CHAR column.
func everyAgg() []foldArg {
	var args []foldArg
	for _, e := range []plan.Expr{col(6), col(2), col(5), foldExprs[0], foldExprs[2]} {
		for _, fn := range []sql.AggFunc{sql.AggSum, sql.AggAvg, sql.AggMin, sql.AggMax, sql.AggCount} {
			args = append(args, foldArg{fn, e})
		}
	}
	return append(args, foldArg{sql.AggCount, nil}, foldArg{sql.AggCount, col(4)})
}

// foldCases are the grouping layouts: none, each column kind alone —
// dense Int, sparse Int, Date, CHAR(1), CHAR(3), Float, CHAR(16) — and
// combinations.
var foldCases = [][]int{{}, {0}, {1}, {2}, {3}, {4}, {8}, {9}, {3, 0}, {4, 2, 1}, {9, 8, 3}, {0, 1, 2, 3, 4}}

// selections yields the selection vectors a page of n tuples is folded
// with: the full page, a random subset, none, and each single tuple's.
func selections(rng *rand.Rand, n int) [][]int32 {
	full, sub := make([]int32, n), []int32{}
	for i := range full {
		full[i] = int32(i)
		if rng.Intn(3) == 0 {
			sub = append(sub, int32(i))
		}
	}
	sels := [][]int32{full, sub, {}}
	if n > 0 {
		sels = append(sels, []int32{int32(rng.Intn(n))}, []int32{0}, []int32{int32(n - 1)})
	}
	return sels
}

// checkFold folds t, page by page and under every selection, through the
// page kernels and through the oracle, and compares the two states.
func checkFold(t *testing.T, rng *rand.Rand, tab *storage.Table, a *plan.Agg) {
	t.Helper()
	prog := CompileAgg(a, foldSchema, nil)
	ref := newRefFolder(a, foldSchema)
	var got, want, single Accum
	got.Reset(prog.NGroups, prog.NAggs)
	want.Reset(prog.NGroups, prog.NAggs)
	single.Reset(prog.NGroups, prog.NAggs)
	// The tuple-at-a-time entry points take the staged tuple: Locate and
	// Add, each a batch of one.
	stage := MakeProjector(foldSchema, a.Input.Cols, a.Input.Schema)
	staged := make([]byte, a.Input.Schema.TupleSize())
	sc := GetScratch()
	defer sc.Put()
	w := foldSchema.TupleSize()
	for pi := 0; pi < tab.NumPages(); pi++ {
		pg := tab.Page(pi)
		for _, sel := range selections(rng, pg.NumTuples()) {
			n := ref.fold(&want, pg.Data(), w, sel)
			for _, k := range sel {
				stage.Project(sc, pg.Data()[int(k)*w:], w, sc.One(), staged)
				if g := Locate(sc, prog.Probes, staged); g >= 0 {
					single.Add(prog.Updates, int(g), staged)
				}
			}
			if m := prog.FoldBatch(&got, sc, pg.Data(), w, append([]int32(nil), sel...)); m != n {
				t.Fatalf("page %d, %d selected: folded %d, oracle %d", pi, len(sel), m, n)
			}
		}
	}
	sameAccum(t, &got, &want)
	sameAccum(t, &single, &want)
}

// sameAccum compares two states slot by slot, floats by their bits.
func sameAccum(t *testing.T, got, want *Accum) {
	t.Helper()
	ints := [][2][]int64{{got.sumI, want.sumI}, {got.cnt, want.cnt}, {got.minI, want.minI}, {got.maxI, want.maxI}, {got.tuples, want.tuples}}
	for k, p := range ints {
		for i := range p[1] {
			if p[0][i] != p[1][i] {
				t.Fatalf("int array %d slot %d: %d, oracle %d", k, i, p[0][i], p[1][i])
			}
		}
	}
	floats := [][2][]float64{{got.sumF, want.sumF}, {got.minF, want.minF}, {got.maxF, want.maxF}}
	for k, p := range floats {
		for i := range p[1] {
			if math.Float64bits(p[0][i]) != math.Float64bits(p[1][i]) {
				t.Fatalf("float array %d slot %d: %v, oracle %v", k, i, p[0][i], p[1][i])
			}
		}
	}
}

// TestFoldMatchesTupleAtATime pins FoldBatch, and Locate and Accum.Add
// over the staged tuple, to the tuple-at-a-time fold they replaced: every
// aggregate kind and computed argument, every grouping layout with
// directory misses, over full, partial, empty and single selections.
func TestFoldMatchesTupleAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := foldTable(rng, 700)
	for _, groups := range foldCases {
		t.Run(fmt.Sprint(groups), func(t *testing.T) {
			checkFold(t, rng, tab, foldAgg(groups, everyAgg()))
			var exprs []foldArg
			for _, e := range foldExprs {
				exprs = append(exprs, foldArg{sql.AggSum, e}, foldArg{sql.AggMax, e})
			}
			checkFold(t, rng, tab, foldAgg(groups, exprs))
		})
	}
}

// FuzzFold folds random tables, layouts and aggregate lists both ways.
func FuzzFold(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(40), uint64(0xffff))
	f.Add(int64(2), uint8(7), uint16(600), uint64(0x123456789))
	f.Fuzz(func(t *testing.T, seed int64, layout uint8, rows uint16, mask uint64) {
		rng := rand.New(rand.NewSource(seed))
		all := append(everyAgg(), foldArg{sql.AggSum, foldExprs[4]}, foldArg{sql.AggMin, foldExprs[5]})
		for _, e := range foldExprs {
			all = append(all, foldArg{sql.AggSum, e})
		}
		var args []foldArg
		for i, arg := range all {
			if mask>>(uint(i)%64)&1 != 0 {
				args = append(args, arg)
			}
		}
		checkFold(t, rng, foldTable(rng, int(rows%2000)), foldAgg(foldCases[int(layout)%len(foldCases)], args))
	})
}

// TestProjectBatchMatchesTuple pins the batch projector to the
// tuple-at-a-time one: coalesced copies, CHAR copies and every computed
// argument, over full, partial, empty and single selections, and the
// batch of one through Scratch.One.
func TestProjectBatchMatchesTuple(t *testing.T) {
	cols := []plan.OutputColumn{
		{Source: 4, Kind: types.String, Size: 3}, {Source: 5, Kind: types.Float, Size: 8},
		{Source: 6, Kind: types.Int, Size: 8}, {Source: 0, Kind: types.Int, Size: 8},
	}
	for _, e := range foldExprs {
		cols = append(cols, plan.OutputColumn{Source: -1, Compute: e, Kind: e.Kind(), Size: 8})
	}
	cols = append(cols, plan.OutputColumn{Source: 2, Kind: types.Date, Size: 8})
	var out []types.Column
	for i, c := range cols {
		out = append(out, types.Column{Name: fmt.Sprint("c", i), Kind: c.Kind, Size: c.Size})
	}
	outSchema := types.NewSchema(out...)
	ow, w := outSchema.TupleSize(), foldSchema.TupleSize()
	pj, ref := MakeProjector(foldSchema, cols, outSchema), refProjector(foldSchema, cols, outSchema)
	rng := rand.New(rand.NewSource(11))
	tab := foldTable(rng, 500)
	sc := GetScratch()
	defer sc.Put()
	for pi := 0; pi < tab.NumPages(); pi++ {
		data := tab.Page(pi).Data()
		for _, sel := range selections(rng, tab.Page(pi).NumTuples()) {
			got, want := make([]byte, len(sel)*ow), make([]byte, len(sel)*ow)
			pj.Project(sc, data, w, sel, got)
			for j, k := range sel {
				ref(data[int(k)*w:], want[j*ow:])
			}
			if string(got) != string(want) {
				t.Fatalf("page %d, %d selected: batch projection differs", pi, len(sel))
			}
			for j, k := range sel {
				one := make([]byte, ow)
				pj.Project(sc, data[int(k)*w:int(k)*w+w], w, sc.One(), one)
				if string(one) != string(want[j*ow:(j+1)*ow]) {
					t.Fatalf("page %d tuple %d: batch-of-one projection differs", pi, k)
				}
			}
		}
	}
}

// TestGrouplessStagedAggregation stages a group-less aggregate's
// zero-width tuples through the coarse route of hybrid aggregation in the
// walk: Arena.Keep must count a batch's tuples by number, not by bytes.
func TestGrouplessStagedAggregation(t *testing.T) {
	cat := buildCatalog(500, 20)
	want := int64(-1)
	for _, alg := range []plan.AggAlgorithm{plan.MapAggregation, plan.SortAggregation, plan.HybridAggregation} {
		opts := plan.DefaultOptions()
		opts.ForceAggAlg = &alg
		out := exec(t, cat, "SELECT COUNT(*) AS n FROM orders WHERE total > 10.0", &opts)
		if out.NumRows() != 1 {
			t.Fatalf("%v: %d rows, want 1", alg, out.NumRows())
		}
		if n := types.GetInt(out.Tuple(0), 0); want < 0 {
			want = n
		} else if n != want || n == 0 {
			t.Fatalf("%v: COUNT(*) = %d, map aggregation counts %d", alg, n, want)
		}
	}
}
