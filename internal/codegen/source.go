// Package codegen implements HIQUE's code generator (paper §V, Figure 3).
//
// The generator instantiates the optimizer's operator descriptors into
// code. Generate builds the executable query only: a fused pipeline for
// every plan the planner emits. A single-table plan compiles to one
// probe/scan→filter→project loop, or the same probe or scan feeding an
// aggregation tail (fused.go); a left-deep chain of equi-joins — binary
// joins or a join team of k inputs — compiles to one
// probe→join→filter→aggregate→emit loop per join, each join staging its
// output straight into the next one's input and the last emitting into
// the plan tail (fused_join.go). Morsel-parallel phases are decided at
// generation time (parallel.go, fused_join_par.go). A plan outside those
// shapes is an error. The paper's -O0 is this same code built with
// -gcflags='hique/...=-N -l' (internal/bench.Tab2).
//
// The fused pipelines call internal/core's kernels — predicates,
// staging, bucketing, the join loop, the accumulators and the HAVING /
// ORDER BY / LIMIT tail — which core.Engine's operator walk, the
// differential oracle, runs too, so results stay byte-identical to every
// engine.
//
// The query-specific Go source text, the analogue of the C file the
// paper emits and compiles with gcc, is rendered from the same
// descriptors by EmitSource (this file) only when EnsureSource asks for
// it — Table III and the inspection tools do, the serving path never
// does. The text is syntax-checked with go/parser (the stand-in for the
// external-compiler step; see DESIGN.md's substitution table) and
// golden-tested for stability; it does not execute.
//
// Callers: hique.DB compiles through Generate and caches the resulting
// CompiledQuery in internal/plancache; a cached query is immutable and
// shared across concurrent executions. Everything mutable an execution
// needs — staging arenas and hash/partition scratch, accumulator state —
// is drawn from sync.Pools per run, so a warm serving path allocates
// (amortised) nothing. Result tables
// come from the storage page arena; the caller owns them and must Release
// after draining.
package codegen

import (
	"fmt"
	"slices"
	"strings"

	"hique/internal/catalog"
	"hique/internal/core"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/types"
)

// sourceWriter accumulates the generated source file.
type sourceWriter struct {
	b      strings.Builder
	indent int
}

func (w *sourceWriter) line(format string, args ...any) {
	for i := 0; i < w.indent; i++ {
		w.b.WriteByte('\t')
	}
	fmt.Fprintf(&w.b, format, args...)
	w.b.WriteByte('\n')
}

func (w *sourceWriter) blank() { w.b.WriteByte('\n') }

func (w *sourceWriter) in()  { w.indent++ }
func (w *sourceWriter) out() { w.indent-- }

// EmitSource generates the query-specific source file for a plan: the
// concrete instantiation of the staging, join, and aggregation templates
// with all types, offsets, and constants resolved (Listings 1 and 2 of the
// paper, rendered in Go).
func EmitSource(p *plan.Plan) string {
	w := &sourceWriter{}
	w.line("// Code generated by HIQUE for the query:")
	w.line("//   %s", p.Stmt)
	if n := len(p.Params); n > 0 {
		w.line("// Parameterized shape with %d bind slot(s): constants are read from the", n)
		w.line("// bind vector at run time, so this one artefact serves every constant.")
	}
	w.line("// DO NOT EDIT: regenerated for every query (holistic evaluation).")
	w.line("package query")
	w.blank()
	w.line(`import "hique/runtime"`)
	w.blank()

	var calls []string
	for ji, j := range p.Joins {
		_, keyCols := keyFilterPlan(p, j)
		for i := range j.Inputs {
			fn := fmt.Sprintf("stageJoin%dInput%d", ji, i)
			emitStageFunc(w, fn, &j.Inputs[i], stageInputSchema(p, &j.Inputs[i]), keyCols[i])
			calls = append(calls, fn)
		}
		fn := fmt.Sprintf("evalJoin%d", ji)
		emitJoinFunc(w, fn, ji, j)
		calls = append(calls, fn)
	}
	if p.Agg != nil {
		if p.Agg.Alg != plan.MapAggregation {
			fn := "stageAggInput"
			emitStageFunc(w, fn, &p.Agg.Input, stageInputSchema(p, &p.Agg.Input), -1)
			calls = append(calls, fn)
		}
		emitAggFunc(w, "evalAggregate", p.Agg)
		calls = append(calls, "evalAggregate")
	}
	if len(p.Having) > 0 {
		emitHavingFunc(w, "evalHaving", p)
		calls = append(calls, "evalHaving")
	}
	if p.Final != nil {
		emitStageFunc(w, "evalProject", p.Final, stageInputSchema(p, p.Final), -1)
		calls = append(calls, "evalProject")
	}
	if p.Sort != nil {
		emitSortFunc(w, "evalOrderBy", p)
		calls = append(calls, "evalOrderBy")
	}
	emitComposer(w, p, calls)
	return w.b.String()
}

// keyWordsGo reads column col of schema, in the tuple variable v, as its
// key words (core.Key): one for a number, one per 8 bytes of a CHAR.
func keyWordsGo(v string, schema *types.Schema, col int) []string {
	c, off := schema.Column(col), schema.Offset(col)
	switch c.Kind {
	case types.String:
		words := make([]string, 0, (c.Size+7)/8)
		for b := 0; b < c.Size; b += 8 {
			words = append(words, fmt.Sprintf("runtime.CharWord(%s[%d:%d])", v, off+b, off+min(b+8, c.Size)))
		}
		return words
	case types.Float:
		return []string{fmt.Sprintf("runtime.FloatWord(%s)", fieldIn(v, c.Kind, off, c.Size))}
	default:
		return []string{fmt.Sprintf("runtime.IntWord(%s)", fieldIn(v, c.Kind, off, c.Size))}
	}
}

// keyWordGo is a column's first key word: the one a hash route or the
// join-key filter reads.
func keyWordGo(v string, schema *types.Schema, col int) string {
	return keyWordsGo(v, schema, col)[0]
}

// keyWordsArg is a column's key words as a call's trailing arguments.
func keyWordsArg(v string, schema *types.Schema, col int) string {
	return strings.Join(keyWordsGo(v, schema, col), ", ")
}

// keyDiffersGo tests two join key columns for a difference in any word,
// the shorter CHAR's missing words zero, as its padding is.
func keyDiffersGo(v0 string, s0 *types.Schema, c0 int, v1 string, s1 *types.Schema, c1 int) string {
	a, b := keyWordsGo(v0, s0, c0), keyWordsGo(v1, s1, c1)
	terms := make([]string, max(len(a), len(b)))
	for i := range terms {
		x, y := "0", "0"
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		terms[i] = x + " != " + y
	}
	return strings.Join(terms, " || ")
}

// dirWordsGo renders a value directory as the key words keyWordsGo's
// probe of column c computes, in directory order.
func dirWordsGo(c types.Column, d *catalog.Directory) string {
	var b strings.Builder
	for i, w := range core.DirWords(c, d) {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%#x", w)
	}
	return b.String()
}

func readField(k types.Kind, off, size int) string { return fieldIn("tuple", k, off, size) }

// fieldIn reads the field at off of the tuple variable v.
func fieldIn(v string, k types.Kind, off, size int) string {
	switch k {
	case types.Int, types.Date:
		return fmt.Sprintf("runtime.Int64At(%s, %d)", v, off)
	case types.Float:
		return fmt.Sprintf("runtime.Float64At(%s, %d)", v, off)
	default:
		return fmt.Sprintf("%s[%d:%d]", v, off, off+size)
	}
}

func cmpOpGo(op sql.CmpOp) string {
	return [...]string{"==", "!=", "<", "<=", ">", ">="}[op]
}

func litGo(d types.Datum) string {
	switch d.Kind {
	case types.Int, types.Date:
		return fmt.Sprintf("%d", d.I)
	case types.Float:
		return fmt.Sprintf("%v", d.F)
	default:
		return fmt.Sprintf("%q", d.S)
	}
}

// bindGo renders the bind-vector access supplying a parameterized filter's
// comparison value at run time: the constant is NOT baked into the
// generated code, which is what lets one compiled artefact serve every
// constant of the query shape.
func bindGo(slot int, k types.Kind) string {
	switch k {
	case types.Float:
		return fmt.Sprintf("bind.Float64(%d)", slot)
	case types.String:
		return fmt.Sprintf("bind.Bytes(%d)", slot)
	default:
		return fmt.Sprintf("bind.Int64(%d)", slot)
	}
}

// stageHasParams reports whether any filter of the stage reads the bind
// vector (such stages take a bind argument in the generated source).
func stageHasParams(st *plan.Stage) bool {
	for i := range st.Filters {
		if _, ok := st.Filters[i].Slot(); ok {
			return true
		}
	}
	return false
}

// emitStageFunc renders the staging template: the page/tuple scan loops of
// Listing 1 with inlined predicates and projection, plus the interleaved
// sort/partition step the consuming operator requires. Filter and copy
// offsets resolve against the stage's real input schema (the base table's
// catalogue schema or the producing join's output schema): filters may
// reference columns the projection drops, so the staged column list alone
// cannot position them. A join input the join's key filter refines
// (keyFilterPlan) passes its join key's input column as keyCol (else -1)
// and also drops the tuples whose key the filter lacks.
func emitStageFunc(w *sourceWriter, name string, st *plan.Stage, inSchema *types.Schema, keyCol int) {
	in := st.Input.String()
	w.line("// %s stages %s: filter, project to %d columns (%d bytes/tuple),",
		name, in, len(st.Cols), st.Schema.TupleSize())
	w.line("// then %s.", stageActionComment(st))
	params := "in *runtime.Table"
	if stageHasParams(st) {
		params += ", bind runtime.Bind"
	}
	if keyCol >= 0 {
		params += ", keys *runtime.KeyFilter"
	}
	w.line("func %s(%s, out *runtime.Staging) {", name, params)
	w.in()
	w.line("for p := 0; p < in.NumPages; p++ {")
	w.in()
	w.line("page := in.Page(p)")
	w.line("for t := 0; t < page.NumTuples; t++ {")
	w.in()
	width := inSchema.TupleSize()
	w.line("tuple := page.Data[t*%d : (t+1)*%d]", width, width)
	for _, f := range st.Filters {
		kind := inSchema.Column(f.Col).Kind
		off := inSchema.Offset(f.Col)
		val := litGo(f.Val)
		if slot, ok := f.Slot(); ok {
			val = bindGo(slot, kind)
		}
		if kind == types.String {
			w.line("if runtime.CmpBytes(tuple[%d:%d], %s) %s 0 { } else { continue }",
				off, off+inSchema.Column(f.Col).Size, val, cmpOpGo(f.Op))
		} else {
			w.line("if !(%s %s %s) { continue }", readField(kind, off, 8), cmpOpGo(f.Op), val)
		}
	}
	if keyCol >= 0 {
		w.line("if !keys.Has(%s) { continue } // join-key filter: no tuple of the first-staged input has this key", keyWordGo("tuple", inSchema, keyCol))
	}
	w.line("dst := out.Alloc(%d)", st.Schema.TupleSize())
	for i, c := range st.Cols {
		dstOff := st.Schema.Offset(i)
		if c.Compute != nil {
			if c.Kind == types.Float {
				w.line("runtime.PutFloat64(dst, %d, %s)", dstOff, exprGo(c.Compute, inSchema))
			} else {
				w.line("runtime.PutInt64(dst, %d, %s)", dstOff, exprGo(c.Compute, inSchema))
			}
			continue
		}
		srcOff := inSchema.Offset(c.Source)
		w.line("copy(dst[%d:%d], tuple[%d:%d]) // %s", dstOff, dstOff+c.Size, srcOff, srcOff+c.Size, c.Name)
	}
	emitRouting(w, st)
	w.out()
	w.line("}")
	w.out()
	w.line("}")
	emitPostStage(w, st)
	w.out()
	w.line("}")
	w.blank()
}

// stageInputSchema resolves the stage's real input schema from the plan:
// the catalogue schema for base-table inputs, the producing join's output
// schema otherwise.
func stageInputSchema(p *plan.Plan, st *plan.Stage) *types.Schema {
	if st.Input.Base >= 0 {
		return p.Tables[st.Input.Base].Entry.Table.Schema()
	}
	return p.Joins[st.Input.Join].Schema
}

// exprGo renders a computed column's expression over the stage's input
// tuple, offsets baked in.
func exprGo(e plan.Expr, inSchema *types.Schema) string {
	switch v := e.(type) {
	case *plan.ColExpr:
		return readField(v.K, inSchema.Offset(v.Col), 8)
	case *plan.ConstExpr:
		return litGo(v.D)
	case *plan.ArithExpr:
		l, r := exprGo(v.L, inSchema), exprGo(v.R, inSchema)
		if v.Kind() == types.Float {
			if v.L.Kind() != types.Float {
				l = "float64(" + l + ")"
			}
			if v.R.Kind() != types.Float {
				r = "float64(" + r + ")"
			}
		}
		return fmt.Sprintf("(%s %c %s)", l, v.Op, r)
	}
	return "0"
}

func stageActionComment(st *plan.Stage) string {
	switch st.Action {
	case plan.StageSort:
		return fmt.Sprintf("sort on columns %v (%s)", st.SortKeys, sortMethod)
	case plan.StagePartitionFine:
		return fmt.Sprintf("fine-partition through a %d-entry value directory", st.FineValues.Len())
	case plan.StagePartitionCoarse:
		s := fmt.Sprintf("hash-partition into %d partitions", st.Partitions)
		if st.SortPartitions {
			s += ", sorting each partition (" + sortMethod + ")"
		}
		return s
	default:
		return "materialize"
	}
}

func emitRouting(w *sourceWriter, st *plan.Stage) {
	// Group-less aggregates stage an empty tuple into a single
	// partition; there is no key to route on, so the emitted code
	// appends directly.
	switch {
	case st.PartitionKey >= st.Schema.NumColumns() || st.Action != plan.StagePartitionFine && st.Action != plan.StagePartitionCoarse:
		w.line("out.Append(dst)")
	case st.Action == plan.StagePartitionFine:
		w.line("out.RouteFine(dst, %s) // value directory probe", keyWordsArg("dst", st.Schema, st.PartitionKey))
	default:
		w.line("out.Route(dst, int(runtime.Hash(%s) & %d))", keyWordGo("dst", st.Schema, st.PartitionKey), st.Partitions-1)
	}
}

func emitPostStage(w *sourceWriter, st *plan.Stage) {
	if firstKey(st.SortKeys) >= st.Schema.NumColumns() {
		return
	}
	switch {
	case st.Action == plan.StageSort:
		w.line("out.RadixSort(%d) // key word offsets baked in", st.Schema.Offset(firstKey(st.SortKeys)))
	case st.Action == plan.StagePartitionCoarse && st.SortPartitions:
		w.line("out.SortEachPartition(%d)", st.Schema.Offset(firstKey(st.SortKeys)))
	}
}

// sortMethod names the sort every stage runs: core.Key's.
const sortMethod = "stable radix sort over the key's order-preserving words"

func firstKey(keys []int) int {
	if len(keys) > 0 {
		return keys[0]
	}
	return 0
}

// emitJoinFunc renders the nested-loops join template of Listing 2,
// specialised per algorithm: page loops before tuple loops, one pair per
// input (join teams get deeper nesting), with merge-bound updates or
// partition loops included per the algorithm.
func emitJoinFunc(w *sourceWriter, name string, ji int, j *plan.Join) {
	w.line("// %s evaluates join[%d] using the %s algorithm over %d staged inputs.",
		name, ji, j.Alg, len(j.Inputs))
	w.line("// Nested-loops template (paper Listing 2): the first tuple-loop iteration")
	w.line("// over each page streams it through the cache; later iterations hit.")
	args := make([]string, len(j.Inputs))
	for i := range j.Inputs {
		args[i] = fmt.Sprintf("in%d *runtime.Staging", i)
	}
	w.line("func %s(%s, out *runtime.Table) {", name, strings.Join(args, ", "))
	w.in()

	switch j.Alg {
	case plan.FinePartitionJoin, plan.HybridJoin:
		w.line("for k := 0; k < %d; k++ { // examine corresponding partitions together", partitionCount(j))
		w.in()
		if j.Alg == plan.HybridJoin {
			for i := range j.Inputs {
				w.line("in%d.SortPartition(k, %d) // hybrid hash-sort-merge: sort just before joining", i, j.Inputs[i].Schema.Offset(j.Keys[i]))
			}
		}
	case plan.MergeJoin:
		w.line("k := 0 // merge join: single logical partition, M = 1")
		w.line("_ = k")
	}

	// Page and tuple loops, page loops first (loop blocking layout).
	for i := range j.Inputs {
		w.line("for p%d := in%d.StartPage(k); p%d <= in%d.EndPage(k); p%d++ {", i, i, i, i, i)
		w.in()
		w.line("page%d := in%d.Page(p%d)", i, i, i)
	}
	width := make([]int, len(j.Inputs))
	for i := range j.Inputs {
		width[i] = j.Inputs[i].Schema.TupleSize()
		w.line("for t%d := 0; t%d < page%d.NumTuples; t%d++ {", i, i, i, i)
		w.in()
		w.line("tuple%d := page%d.Data[t%d*%d : (t%d+1)*%d]", i, i, i, width[i], i, width[i])
	}

	// Key comparisons: every input against input 0 (the equivalence
	// class guarantees transitivity).
	for i := 1; i < len(j.Inputs); i++ {
		w.line("if %s {", keyDiffersGo("tuple0", j.Inputs[0].Schema, j.Keys[0], fmt.Sprint("tuple", i), j.Inputs[i].Schema, j.Keys[i]))
		w.in()
		if j.Alg == plan.MergeJoin || j.Alg == plan.HybridJoin {
			w.line("runtime.UpdateMergeBounds() // advance/backtrack loop bounds (condition variable)")
		}
		w.line("continue")
		w.out()
		w.line("}")
	}

	// Inlined add_to_result.
	w.line("dst := out.Alloc(%d)", j.Schema.TupleSize())
	for pos, o := range j.Out {
		src := j.Inputs[o.Input].Schema
		dstOff := j.Schema.Offset(pos)
		srcOff := src.Offset(o.Col)
		size := src.Column(o.Col).Size
		w.line("copy(dst[%d:%d], tuple%d[%d:%d]) // %s",
			dstOff, dstOff+size, o.Input, srcOff, srcOff+size, src.Column(o.Col).Name)
	}
	w.line("out.Commit(dst)")

	for range j.Inputs {
		w.out()
		w.line("}")
		w.out()
		w.line("}")
	}
	if j.Alg != plan.MergeJoin {
		w.out()
		w.line("}")
	}
	w.out()
	w.line("}")
	w.blank()
}

func partitionCount(j *plan.Join) int {
	for i := range j.Inputs {
		if st := &j.Inputs[i]; st.Action == plan.StagePartitionCoarse || st.Action == plan.StagePartitionFine {
			return maxPartitions(st)
		}
	}
	return 1
}

// emitAggFunc renders the aggregation template: sort/hybrid aggregation
// extends the scan template with group tracking; map aggregation inlines
// the directory lookups and the Figure 4 offset computation.
func emitAggFunc(w *sourceWriter, name string, a *plan.Agg) {
	w.line("// %s computes %d aggregates over %d grouping attributes (%s aggregation).",
		name, len(a.Aggs), len(a.GroupCols), a.Alg)
	w.line("func %s(in *runtime.Staging, out *runtime.Table) {", name)
	w.in()

	if a.Alg == plan.MapAggregation {
		for i, d := range a.Directories {
			c := a.Input.Schema.Column(a.GroupCols[i])
			w.line("// directory %d: %d distinct values of %s, as %d key words each", i, d.Len(), c.Name, len(keyWordsGo("tuple", a.Input.Schema, a.GroupCols[i])))
			w.line("dir%d := []uint64{%s}", i, dirWordsGo(c, d))
		}
		strides := make([]int, len(a.GroupCols))
		s := 1
		for i := len(a.GroupCols) - 1; i >= 0; i-- {
			strides[i] = s
			s *= a.Directories[i].Len()
		}
		// COUNT(*)-only aggregations fold entirely into counts; declaring
		// the per-aggregate arrays anyway would leave aggs unused and the
		// unit would not compile.
		if slices.ContainsFunc(a.Aggs, func(spec plan.AggSpec) bool { return !spec.Star }) {
			w.line("var aggs [%d][%d]float64 // one flat array per aggregate (Fig. 4)", len(a.Aggs), s)
		}
		w.line("var counts [%d]int64", s)
		w.line("for p := 0; p < in.NumPages(0); p++ {")
		w.in()
		w.line("page := in.PageOf(0, p)")
		w.line("for t := 0; t < page.NumTuples; t++ {")
		w.in()
		width := a.Input.Schema.TupleSize()
		w.line("tuple := page.Data[t*%d : (t+1)*%d]", width, width)
		terms := make([]string, len(a.GroupCols))
		for i, gc := range a.GroupCols {
			w.line("g%d := runtime.DirIndex(dir%d, %s) // value directory %d probe", i, i, keyWordsArg("tuple", a.Input.Schema, gc), i)
			w.line("if g%d < 0 { continue } // absent from the directory: no group", i)
			if strides[i] == 1 {
				terms[i] = fmt.Sprintf("g%d", i)
			} else {
				terms[i] = fmt.Sprintf("g%d*%d", i, strides[i])
			}
		}
		w.line("slot := %s // offset formula of Fig. 4(b)", strings.Join(terms, " + "))
		w.line("counts[slot]++")
		for i, spec := range a.Aggs {
			if spec.Star {
				continue
			}
			kind := a.Input.Schema.Column(spec.Col).Kind
			v := readField(kind, a.Input.Schema.Offset(spec.Col), 8)
			switch spec.Func {
			case sql.AggSum, sql.AggAvg:
				if kind != types.Float {
					v = "float64(" + v + ")"
				}
				w.line("aggs[%d][slot] += %s", i, v)
			case sql.AggMin:
				w.line("if v := %s; float64(v) < aggs[%d][slot] { aggs[%d][slot] = float64(v) }", v, i, i)
			case sql.AggMax:
				w.line("if v := %s; float64(v) > aggs[%d][slot] { aggs[%d][slot] = float64(v) }", v, i, i)
			case sql.AggCount:
				w.line("aggs[%d][slot]++", i)
			}
		}
		w.out()
		w.line("}")
		w.out()
		w.line("}")
		w.line("runtime.EmitGroups(out, counts[:], %d)", len(a.Aggs))
	} else {
		w.line("// input staged %s: one linear scan, groups close on key change", a.Input.Action)
		w.line("var acc runtime.Accumulators")
		w.line("for part := 0; part < in.Partitions(); part++ {")
		w.in()
		w.line("for p := 0; p < in.NumPages(part); p++ {")
		w.in()
		w.line("page := in.PageOf(part, p)")
		w.line("for t := 0; t < page.NumTuples; t++ {")
		w.in()
		// Group-less COUNTs read no staged field: no tuple to declare.
		reads := len(a.GroupCols) > 0
		for _, spec := range a.Aggs {
			reads = reads || !(spec.Star || spec.Func == sql.AggCount)
		}
		if width := a.Input.Schema.TupleSize(); reads {
			w.line("tuple := page.Data[t*%d : (t+1)*%d]", width, width)
		}
		for _, gc := range a.GroupCols {
			off := a.Input.Schema.Offset(gc)
			size := a.Input.Schema.Column(gc).Size
			w.line("if runtime.CmpBytes(tuple[%d:%d], acc.GroupKey(%d)) != 0 { acc.CloseGroup(out); acc.OpenGroup(tuple) }",
				off, off+size, off)
			break // key prefix comparison is enough to detect change in sorted input
		}
		for i, spec := range a.Aggs {
			// COUNT(col) counts tuples like COUNT(*) (no NULLs), and must
			// not read its argument: it may be a CHAR column.
			if spec.Star || spec.Func == sql.AggCount {
				w.line("acc.Count(%d)", i)
				continue
			}
			off := a.Input.Schema.Offset(spec.Col)
			kind := a.Input.Schema.Column(spec.Col).Kind
			w.line("acc.Update(%d, float64(%s)) // %s", i, readField(kind, off, 8), spec.Func)
		}
		w.out()
		w.line("}")
		w.out()
		w.line("}")
		w.line("acc.CloseGroup(out) // groups never span hash partitions")
		w.out()
		w.line("}")
	}
	w.out()
	w.line("}")
	w.blank()
}

// emitHavingFunc renders the post-aggregation filter: one scan over the
// aggregated result keeping rows whose HAVING conjuncts all hold,
// rewritten into a fresh table. The sort and limit then apply to the
// survivors, matching every interpreted engine's evaluation order.
func emitHavingFunc(w *sourceWriter, name string, p *plan.Plan) {
	s := p.ResultSchema()
	width := s.TupleSize()
	w.line("// %s filters the aggregated result on %d HAVING conjunct(s).", name, len(p.Having))
	w.line("func %s(in *runtime.Table) *runtime.Table {", name)
	w.in()
	w.line("out := runtime.NewTable(%d)", width)
	w.line("for p := 0; p < in.NumPages; p++ {")
	w.in()
	w.line("page := in.Page(p)")
	w.line("for t := 0; t < page.NumTuples; t++ {")
	w.in()
	w.line("tuple := page.Data[t*%d : (t+1)*%d]", width, width)
	for _, h := range p.Having {
		c := s.Column(h.Col)
		off := s.Offset(h.Col)
		if c.Kind == types.String {
			w.line("if runtime.CmpBytes(tuple[%d:%d], %s) %s 0 { } else { continue }",
				off, off+c.Size, litGo(h.Val), cmpOpGo(h.Op))
		} else {
			w.line("if !(%s %s %s) { continue } // %s", readField(c.Kind, off, 8), cmpOpGo(h.Op), litGo(h.Val), c.Name)
		}
	}
	w.line("dst := out.Alloc(%d)", width)
	w.line("copy(dst, tuple)")
	w.line("out.Commit(dst)")
	w.out()
	w.line("}")
	w.out()
	w.line("}")
	w.line("return out")
	w.out()
	w.line("}")
	w.blank()
}

func emitSortFunc(w *sourceWriter, name string, p *plan.Plan) {
	w.line("// %s orders the result on %d keys.", name, len(p.Sort.Keys))
	w.line("func %s(result *runtime.Table) {", name)
	w.in()
	for _, k := range p.Sort.Keys {
		dir := "ascending"
		if k.Desc {
			dir = "descending"
		}
		w.line("// key: column %d (%s), %s", k.Col, p.ResultSchema().Column(k.Col).Name, dir)
	}
	w.line("result.RadixSort(%d)", p.ResultSchema().Offset(p.Sort.Keys[0].Col))
	w.out()
	w.line("}")
	w.blank()
}

// emitComposer renders the main function calling every generated function
// in descriptor order (Figure 3, line 19).
func emitComposer(w *sourceWriter, p *plan.Plan, calls []string) {
	w.line("// EvaluateQuery composes the generated operator functions in plan order")
	w.line("// and returns the result to the server (Fig. 3, line 19).")
	if len(p.Params) > 0 {
		w.line("func EvaluateQuery(db *runtime.Catalog, bind runtime.Bind) *runtime.Table {")
	} else {
		w.line("func EvaluateQuery(db *runtime.Catalog) *runtime.Table {")
	}
	w.in()
	for ji, j := range p.Joins {
		first, keyCols := keyFilterPlan(p, j)
		for k := range j.Inputs {
			i := nthStaged(k, first)
			keys := ""
			if keyCols[i] >= 0 {
				keys = fmt.Sprintf(", keys%d", ji)
			}
			w.line("s%d_%d := runtime.NewStaging(%d)", ji, i, maxPartitions(&j.Inputs[i]))
			w.line("stageJoin%dInput%d(db.Input(%q)%s%s, s%d_%d)", ji, i, j.Inputs[i].Input, bindArg(&j.Inputs[i]), keys, ji, i)
			if k == 0 && slices.Max(keyCols) >= 0 {
				w.line("keys%d := runtime.NewKeyFilter(s%d_%d, func(tuple []byte) uint64 { return %s }, %d) // its staged join keys",
					ji, ji, i, keyWordGo("tuple", j.Inputs[i].Schema, j.Keys[i]), core.MaxKeyFilterBits)
			}
		}
		args := make([]string, len(j.Inputs))
		for i := range j.Inputs {
			args[i] = fmt.Sprintf("s%d_%d", ji, i)
		}
		w.line("join%d := runtime.NewTable(%d)", ji, j.Schema.TupleSize())
		w.line("evalJoin%d(%s, join%d)", ji, strings.Join(args, ", "), ji)
	}
	switch {
	case p.Agg != nil:
		w.line("result := runtime.NewTable(%d)", p.Agg.Schema.TupleSize())
		if p.Agg.Alg == plan.MapAggregation {
			w.line("evalAggregate(runtime.WrapTable(db.Input(%q)), result)", p.Agg.Input.Input)
		} else {
			w.line("sAgg := runtime.NewStaging(%d)", maxPartitions(&p.Agg.Input))
			w.line("stageAggInput(db.Input(%q)%s, sAgg)", p.Agg.Input.Input, bindArg(&p.Agg.Input))
			w.line("evalAggregate(sAgg, result)")
		}
	case p.Final != nil:
		w.line("sFinal := runtime.NewStaging(1)")
		w.line("evalProject(db.Input(%q)%s, sFinal)", p.Final.Input, bindArg(p.Final))
		w.line("result := sFinal.AsTable()")
	}
	if len(p.Having) > 0 {
		w.line("result = evalHaving(result)")
	}
	if p.Sort != nil {
		w.line("evalOrderBy(result)")
	}
	if p.Limit >= 0 {
		w.line("result.Truncate(%d)", p.Limit)
	}
	w.line("return result")
	w.out()
	w.line("}")
}

// bindArg renders the extra bind-vector argument for stage-function calls
// whose filters read parameters.
func bindArg(st *plan.Stage) string {
	if stageHasParams(st) {
		return ", bind"
	}
	return ""
}

func maxPartitions(st *plan.Stage) int {
	switch st.Action {
	case plan.StagePartitionCoarse:
		return st.Partitions
	case plan.StagePartitionFine:
		return st.FineValues.Len()
	}
	return 1
}
