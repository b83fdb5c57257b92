package plan

import (
	"fmt"
	"math"
	"strings"

	"hique/internal/catalog"
	"hique/internal/sql"
	"hique/internal/types"
)

// Options tune the optimizer. The defaults implement the paper's
// heuristics; experiments override them to force specific algorithms
// (e.g. Figure 7 compares merge- against hybrid-join on the same query).
type Options struct {
	// EnableJoinTeams lets the optimizer fuse joins that share a key
	// equivalence class into one multi-way team join (§V-B).
	EnableJoinTeams bool
	// ForceJoinAlg overrides join algorithm selection when non-nil.
	ForceJoinAlg *JoinAlgorithm
	// ForceAggAlg overrides aggregation algorithm selection when non-nil.
	ForceAggAlg *AggAlgorithm
	// L2CacheBytes bounds cache-fitting decisions (partition counts,
	// map-aggregation directory budgets).
	L2CacheBytes int
	// FinePartitionMaxValues caps the key domain for fine partitioning.
	FinePartitionMaxValues int
	// Parallelism is the worker target for morsel-driven parallel
	// execution of the fused pipelines: 0 resolves to GOMAXPROCS at
	// compile time, 1 forces serial execution. Small inputs stay serial
	// regardless (the codegen layer's catalogue-estimate threshold).
	Parallelism int
}

// DefaultOptions returns the paper-faithful configuration.
func DefaultOptions() Options {
	return Options{
		EnableJoinTeams:        true,
		L2CacheBytes:           2 << 20,
		FinePartitionMaxValues: 1024,
	}
}

// Build optimises a parsed statement into an operator-descriptor plan using
// the default options.
func Build(stmt *sql.SelectStmt, cat *catalog.Catalog) (*Plan, error) {
	return BuildWithOptions(stmt, cat, DefaultOptions())
}

// BuildWithOptions optimises with explicit options.
func BuildWithOptions(stmt *sql.SelectStmt, cat *catalog.Catalog, opts Options) (*Plan, error) {
	b := &builder{stmt: stmt, cat: cat, opts: opts}
	if stmt.NumParams > 0 {
		b.params = make([]ParamSlot, stmt.NumParams)
		b.paramsSeen = make([]bool, stmt.NumParams)
	}
	if err := b.resolveTables(); err != nil {
		return nil, err
	}
	if err := b.expandStar(); err != nil {
		return nil, err
	}
	if err := b.classifyPredicates(); err != nil {
		return nil, err
	}
	b.collectNeededColumns()
	b.estimateBaseCardinalities()
	if err := b.planJoins(); err != nil {
		return nil, err
	}
	if err := b.planOutput(); err != nil {
		return nil, err
	}
	if err := b.planHaving(); err != nil {
		return nil, err
	}
	if err := b.planSort(); err != nil {
		return nil, err
	}
	for i, seen := range b.paramsSeen {
		if !seen {
			return nil, fmt.Errorf("plan: parameter %d is not a comparison operand (parameters are supported in WHERE predicates only)", i+1)
		}
	}
	b.plan.Stmt = stmt
	b.plan.Tables = b.tables
	b.plan.Params = b.params
	b.plan.Limit = stmt.Limit
	b.plan.Parallelism = opts.Parallelism
	return &b.plan, nil
}

type joinEdge struct {
	lt, lc, rt, rc int
}

type filterPred struct {
	col int
	op  sql.CmpOp
	val types.Datum
	// param is 1 + the bind-vector slot supplying the value at run time;
	// 0 (the zero value) means val is a baked literal — the same safe
	// encoding Filter.Param uses.
	param int
}

// filter lowers the predicate to its descriptor form.
func (f filterPred) filter() Filter {
	return Filter{Col: f.col, Op: f.op, Val: f.val, Param: f.param}
}

// relation tracks the current state of a joined input during planning:
// either a base table or the materialised output of a join.
type relation struct {
	ref    InputRef
	schema *types.Schema
	est    float64
	// loc maps (table, column) to a position in schema. For base tables
	// it is the identity over that table's columns.
	loc map[[2]int]int
	// sortedBy is the column equivalence class id the relation is
	// physically ordered on, or -1 (interesting orders, §IV).
	sortedBy int
}

type builder struct {
	stmt *sql.SelectStmt
	cat  *catalog.Catalog
	opts Options

	tables   []TableInput
	aliasIdx map[string]int

	filters     [][]filterPred // per table
	edges       []joinEdge
	needed      []map[int]bool // per table: columns required beyond filtering
	est         []float64      // per table: rows after filters
	classOf     map[[2]int]int // (table,col) -> join equivalence class
	numClasses  int
	plan        Plan
	filtersUsed []bool // per table: filters already applied in some stage

	// params collects the bind-vector slot descriptions; paramsSeen
	// tracks which placeholders landed in a supported position.
	params     []ParamSlot
	paramsSeen []bool
}

func (b *builder) resolveTables() error {
	if len(b.stmt.From) == 0 {
		return fmt.Errorf("plan: query has no FROM clause")
	}
	b.aliasIdx = make(map[string]int, len(b.stmt.From))
	for _, ref := range b.stmt.From {
		e, err := b.cat.Lookup(ref.Name)
		if err != nil {
			return err
		}
		if _, dup := b.aliasIdx[ref.Alias]; dup {
			return fmt.Errorf("plan: duplicate table alias %q", ref.Alias)
		}
		b.aliasIdx[ref.Alias] = len(b.tables)
		b.tables = append(b.tables, TableInput{Name: ref.Name, Alias: ref.Alias, Entry: e})
	}
	b.filters = make([][]filterPred, len(b.tables))
	b.needed = make([]map[int]bool, len(b.tables))
	b.filtersUsed = make([]bool, len(b.tables))
	for i := range b.needed {
		b.needed[i] = make(map[int]bool)
	}
	return nil
}

// expandStar replaces SELECT * with the full column list.
func (b *builder) expandStar() error {
	if len(b.stmt.Select) != 1 {
		return nil
	}
	col, ok := b.stmt.Select[0].Expr.(*sql.ColRef)
	if !ok || col.Column != "*" {
		return nil
	}
	var items []sql.SelectItem
	for ti := range b.tables {
		s := b.tables[ti].Entry.Table.Schema()
		for ci := 0; ci < s.NumColumns(); ci++ {
			items = append(items, sql.SelectItem{Expr: &sql.ColRef{
				Table:  b.tables[ti].Alias,
				Column: s.Column(ci).Name,
			}})
		}
	}
	b.stmt.Select = items
	return nil
}

// resolveColumn binds a column reference to (table index, column index).
func (b *builder) resolveColumn(c *sql.ColRef) (int, int, error) {
	if c.Table != "" {
		ti, ok := b.aliasIdx[c.Table]
		if !ok {
			return 0, 0, fmt.Errorf("plan: unknown table alias %q", c.Table)
		}
		ci := b.tables[ti].Entry.Table.Schema().ColumnIndex(c.Column)
		if ci < 0 {
			return 0, 0, fmt.Errorf("plan: table %q has no column %q", c.Table, c.Column)
		}
		return ti, ci, nil
	}
	ti, ci := -1, -1
	for i := range b.tables {
		if j := b.tables[i].Entry.Table.Schema().ColumnIndex(c.Column); j >= 0 {
			if ti >= 0 {
				return 0, 0, fmt.Errorf("plan: ambiguous column %q", c.Column)
			}
			ti, ci = i, j
		}
	}
	if ti < 0 {
		return 0, 0, fmt.Errorf("plan: unknown column %q", c.Column)
	}
	return ti, ci, nil
}

// LiteralDatum coerces a literal expression to a datum of the given column
// kind. It is the exact coercion the literal-specialized path applies at
// plan time, exported so auto-parameterization can bind lifted literals
// value-identically.
func LiteralDatum(e sql.Expr, kind types.Kind) (types.Datum, error) {
	return literalDatum(e, kind)
}

// literalDatum coerces a literal expression to a datum of the column kind.
func literalDatum(e sql.Expr, kind types.Kind) (types.Datum, error) {
	switch v := e.(type) {
	case *sql.IntLit:
		switch kind {
		case types.Int, types.Date:
			return types.Datum{Kind: kind, I: v.Value}, nil
		case types.Float:
			return types.FloatDatum(float64(v.Value)), nil
		}
	case *sql.FloatLit:
		if kind == types.Float {
			return types.FloatDatum(v.Value), nil
		}
	case *sql.DateLit:
		switch kind {
		case types.Date, types.Int:
			return types.Datum{Kind: kind, I: v.Days}, nil
		}
	case *sql.StringLit:
		if kind == types.String {
			return types.StringDatum(v.Value), nil
		}
	}
	return types.Datum{}, fmt.Errorf("plan: literal %s incompatible with %v column", e, kind)
}

func isLiteral(e sql.Expr) bool {
	switch e.(type) {
	case *sql.IntLit, *sql.FloatLit, *sql.StringLit, *sql.DateLit:
		return true
	}
	return false
}

// isConstOperand accepts a filter's comparison operand: a literal or a
// bind-parameter placeholder.
func isConstOperand(e sql.Expr) bool {
	if _, ok := e.(*sql.Param); ok {
		return true
	}
	return isLiteral(e)
}

// constOperand resolves a filter's comparison operand — a '?' placeholder
// passes through, and arithmetic over literals folds to a single literal,
// so predicates like l_shipdate <= DATE '1998-12-01' - 90 bake to a plain
// constant at plan time. Returns nil when the operand is not constant.
func constOperand(e sql.Expr) sql.Expr {
	if _, ok := e.(*sql.Param); ok {
		return e
	}
	return foldConst(e)
}

// foldConst evaluates an arithmetic expression over literals to a single
// literal, mirroring ArithExpr's promotion rules: the result is Float when
// either side is Float or the operator is division, integer otherwise.
// DATE literals participate as their day numbers (ColExpr of Date kind
// behaves the same way under ArithExpr), so the folded integer coerces
// against Date columns through literalDatum exactly as a DateLit would.
// Returns nil when the expression is not constant.
func foldConst(e sql.Expr) sql.Expr {
	switch v := e.(type) {
	case *sql.IntLit, *sql.FloatLit, *sql.StringLit, *sql.DateLit:
		return e
	case *sql.BinaryExpr:
		l, r := foldConst(v.Left), foldConst(v.Right)
		if l == nil || r == nil {
			return nil
		}
		li, lf, lFloat, ok := litNum(l)
		if !ok {
			return nil
		}
		ri, rf, rFloat, ok := litNum(r)
		if !ok {
			return nil
		}
		if lFloat || rFloat || v.Op == sql.OpDiv {
			var f float64
			switch v.Op {
			case sql.OpAdd:
				f = lf + rf
			case sql.OpSub:
				f = lf - rf
			case sql.OpMul:
				f = lf * rf
			case sql.OpDiv:
				if rf == 0 {
					return nil
				}
				f = lf / rf
			}
			return &sql.FloatLit{Value: f}
		}
		var n int64
		switch v.Op {
		case sql.OpAdd:
			n = li + ri
		case sql.OpSub:
			n = li - ri
		case sql.OpMul:
			n = li * ri
		}
		return &sql.IntLit{Value: n}
	}
	return nil
}

// litNum decodes a numeric literal as both integer and float views.
func litNum(e sql.Expr) (i int64, f float64, isFloat, ok bool) {
	switch v := e.(type) {
	case *sql.IntLit:
		return v.Value, float64(v.Value), false, true
	case *sql.FloatLit:
		return 0, v.Value, true, true
	case *sql.DateLit:
		return v.Days, float64(v.Days), false, true
	}
	return 0, 0, false, false
}

// classifyPredicates splits WHERE conjuncts into per-table selections and
// equi-join edges, and computes join-key equivalence classes.
func (b *builder) classifyPredicates() error {
	for i := range b.stmt.Where {
		p := &b.stmt.Where[i]
		lCol, lIsCol := p.Left.(*sql.ColRef)
		rCol, rIsCol := p.Right.(*sql.ColRef)
		switch {
		case lIsCol && rIsCol:
			lt, lc, err := b.resolveColumn(lCol)
			if err != nil {
				return err
			}
			rt, rc, err := b.resolveColumn(rCol)
			if err != nil {
				return err
			}
			if lt == rt {
				return fmt.Errorf("plan: same-table column comparison %s is not supported", p)
			}
			if p.Op != sql.CmpEq {
				return fmt.Errorf("plan: only equi-joins are supported, found %s", p)
			}
			lk := b.tables[lt].Entry.Table.Schema().Column(lc).Kind
			rk := b.tables[rt].Entry.Table.Schema().Column(rc).Kind
			if lk != rk {
				return fmt.Errorf("plan: join key kind mismatch in %s", p)
			}
			b.edges = append(b.edges, joinEdge{lt, lc, rt, rc})
		case lIsCol:
			operand := constOperand(p.Right)
			if operand == nil {
				return fmt.Errorf("plan: unsupported predicate %s", p)
			}
			if err := b.addFilter(lCol, p.Op, operand); err != nil {
				return err
			}
		case rIsCol:
			operand := constOperand(p.Left)
			if operand == nil {
				return fmt.Errorf("plan: unsupported predicate %s", p)
			}
			if err := b.addFilter(rCol, p.Op.Flip(), operand); err != nil {
				return err
			}
		default:
			return fmt.Errorf("plan: unsupported predicate %s", p)
		}
	}
	b.buildEquivalenceClasses()
	return nil
}

func (b *builder) addFilter(col *sql.ColRef, op sql.CmpOp, operand sql.Expr) error {
	ti, ci, err := b.resolveColumn(col)
	if err != nil {
		return err
	}
	c := b.tables[ti].Entry.Table.Schema().Column(ci)
	if prm, ok := operand.(*sql.Param); ok {
		if prm.Index < 0 || prm.Index >= len(b.params) {
			return fmt.Errorf("plan: placeholder index %d out of range (statement has %d)", prm.Index, len(b.params))
		}
		// No Size: comparison slots never width-check — an oversized
		// string is a legal comparand (it simply never matches equality).
		b.params[prm.Index] = ParamSlot{Kind: c.Kind, Column: b.tables[ti].Alias + "." + c.Name}
		b.paramsSeen[prm.Index] = true
		b.filters[ti] = append(b.filters[ti], filterPred{col: ci, op: op, param: prm.Index + 1})
		return nil
	}
	d, err := literalDatum(operand, c.Kind)
	if err != nil {
		return err
	}
	b.filters[ti] = append(b.filters[ti], filterPred{col: ci, op: op, val: d})
	return nil
}

// buildEquivalenceClasses runs union-find over join-key columns.
func (b *builder) buildEquivalenceClasses() {
	parent := map[[2]int][2]int{}
	var find func(x [2]int) [2]int
	find = func(x [2]int) [2]int {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(a, c [2]int) { parent[find(a)] = find(c) }
	for _, e := range b.edges {
		union([2]int{e.lt, e.lc}, [2]int{e.rt, e.rc})
	}
	b.classOf = map[[2]int]int{}
	classID := map[[2]int]int{}
	for x := range parent {
		root := find(x)
		id, ok := classID[root]
		if !ok {
			id = b.numClasses
			classID[root] = id
			b.numClasses++
		}
		b.classOf[x] = id
	}
}

// collectNeededColumns marks every column referenced outside filters so
// staging keeps it (projection pushdown, §IV step 1).
func (b *builder) collectNeededColumns() {
	mark := func(c *sql.ColRef) {
		if ti, ci, err := b.resolveColumn(c); err == nil {
			b.needed[ti][ci] = true
		}
	}
	for i := range b.stmt.Select {
		sql.WalkColumns(b.stmt.Select[i].Expr, mark)
	}
	for i := range b.stmt.GroupBy {
		mark(&b.stmt.GroupBy[i])
	}
	for i := range b.stmt.OrderBy {
		sql.WalkColumns(b.stmt.OrderBy[i].Expr, mark)
	}
	for _, e := range b.edges {
		b.needed[e.lt][e.lc] = true
		b.needed[e.rt][e.rc] = true
	}
}

func (b *builder) estimateBaseCardinalities() {
	b.est = make([]float64, len(b.tables))
	for i := range b.tables {
		rows := float64(b.tables[i].Entry.Stats.Rows)
		for _, f := range b.filters[i] {
			rows *= filterSelectivity(f, &b.tables[i].Entry.Stats.Columns[f.col])
		}
		if rows < 1 {
			rows = 1
		}
		b.est[i] = rows
	}
}

func filterSelectivity(f filterPred, cs *catalog.ColumnStats) float64 {
	dv := float64(cs.DistinctValues)
	if dv < 1 {
		dv = 1
	}
	switch f.op {
	case sql.CmpEq:
		return 1 / dv
	case sql.CmpNe:
		return 1 - 1/dv
	default:
		// Parameterized range predicate: the constant is unknown at plan
		// time, so estimate from the catalogue default. Equality and
		// inequality above never read the value, so they estimate
		// identically with and without parameterization; only range
		// interpolation degrades (DESIGN.md documents the literal-
		// specialized fallback for value-sensitive decisions).
		if f.param > 0 {
			return 1.0 / 3
		}
		// Range predicate: interpolate for integer domains.
		if (f.val.Kind == types.Int || f.val.Kind == types.Date) && cs.Max > cs.Min {
			frac := float64(f.val.I-cs.Min) / float64(cs.Max-cs.Min)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			if f.op == sql.CmpGt || f.op == sql.CmpGe {
				frac = 1 - frac
			}
			if frac < 0.01 {
				frac = 0.01
			}
			return frac
		}
		return 1.0 / 3
	}
}

// keyDistinct estimates the number of distinct key values of a base-table
// column, clamped by the filtered cardinality.
func (b *builder) keyDistinct(ti, ci int) float64 {
	dv := float64(b.tables[ti].Entry.Stats.Columns[ci].DistinctValues)
	if dv < 1 {
		dv = 1
	}
	if dv > b.est[ti] {
		dv = b.est[ti]
	}
	return dv
}

// --- Join planning ---------------------------------------------------------

func (b *builder) planJoins() error {
	if len(b.tables) == 1 {
		return nil
	}
	if len(b.edges) == 0 {
		return fmt.Errorf("plan: cross products are not supported (no join predicate)")
	}

	// Join-team detection: if every join key falls into one equivalence
	// class that touches every table, the whole query is one team (§V-B).
	if b.opts.EnableJoinTeams && b.numClasses == 1 {
		touched := map[int]bool{}
		for _, e := range b.edges {
			touched[e.lt] = true
			touched[e.rt] = true
		}
		if len(touched) == len(b.tables) && len(b.tables) > 2 {
			return b.planTeamJoin()
		}
	}
	return b.planBinaryJoins()
}

// planTeamJoin emits a single n-way join descriptor over all tables.
func (b *builder) planTeamJoin() error {
	// Key column per table: the column in the (single) equivalence class.
	keyCols := make([]int, len(b.tables))
	for i := range keyCols {
		keyCols[i] = -1
	}
	for xy := range b.classOf {
		keyCols[xy[0]] = xy[1]
	}
	for i, kc := range keyCols {
		if kc < 0 {
			return fmt.Errorf("plan: table %q missing from join team", b.tables[i].Alias)
		}
	}

	alg := b.chooseTeamAlgorithm(keyCols)
	j := &Join{Alg: alg}
	est := 1.0
	var maxDV float64 = 1
	for ti := range b.tables {
		st, origins := b.stageBaseTable(ti, keyCols[ti], alg)
		j.Inputs = append(j.Inputs, *st)
		j.Keys = append(j.Keys, b.stagedKeyPos(origins, ti, keyCols[ti]))
		est *= b.est[ti]
		if dv := b.keyDistinct(ti, keyCols[ti]); dv > maxDV {
			maxDV = dv
		}
	}
	for i := 0; i < len(b.tables)-1; i++ {
		est /= maxDV
	}
	j.EstRows = est
	b.finishJoinSchema(j)
	b.plan.Joins = append(b.plan.Joins, j)
	return nil
}

func (b *builder) chooseTeamAlgorithm(keyCols []int) JoinAlgorithm {
	if alg, ok := b.forcedJoinAlg(0, keyCols[0]); ok {
		return alg
	}
	// Merge team when the largest input sorts comfortably; hybrid when
	// inputs are large enough that partitioned sorting pays off.
	var maxBytes float64
	for ti := range b.tables {
		bytes := b.est[ti] * float64(b.stagedWidth(ti, keyCols[ti]))
		if bytes > maxBytes {
			maxBytes = bytes
		}
	}
	if maxBytes > 8*float64(b.opts.L2CacheBytes) {
		return HybridJoin
	}
	return MergeJoin
}

// planBinaryJoins orders binary joins greedily by estimated output size.
func (b *builder) planBinaryJoins() error {
	n := len(b.tables)
	joined := make([]bool, n)

	// adjacency: for each pair, the first connecting edge.
	adj := make(map[[2]int]joinEdge)
	for _, e := range b.edges {
		key := [2]int{e.lt, e.rt}
		if _, ok := adj[key]; !ok {
			adj[key] = e
		}
		rev := [2]int{e.rt, e.lt}
		if _, ok := adj[rev]; !ok {
			adj[rev] = joinEdge{e.rt, e.rc, e.lt, e.lc}
		}
	}

	// Pick the starting pair minimising estimated output.
	bestL, bestR := -1, -1
	bestEst := math.Inf(1)
	for key, e := range adj {
		if key[0] > key[1] {
			continue
		}
		est := b.est[e.lt] * b.est[e.rt] / math.Max(b.keyDistinct(e.lt, e.lc), b.keyDistinct(e.rt, e.rc))
		if est < bestEst {
			bestEst = est
			bestL, bestR = e.lt, e.rt
		}
	}
	if bestL < 0 {
		return fmt.Errorf("plan: join graph is disconnected")
	}

	firstEdge := adj[[2]int{bestL, bestR}]
	cur, err := b.emitBinaryJoin(nil, firstEdge, bestEst)
	if err != nil {
		return err
	}
	joined[bestL], joined[bestR] = true, true

	for count := 2; count < n; count++ {
		// Find the unjoined table connected to the current relation
		// that minimises the next intermediate.
		next := -1
		var nextEdge joinEdge
		nextEst := math.Inf(1)
		for t := 0; t < n; t++ {
			if joined[t] {
				continue
			}
			for s := 0; s < n; s++ {
				if !joined[s] {
					continue
				}
				e, ok := adj[[2]int{s, t}]
				if !ok {
					continue
				}
				est := cur.est * b.est[t] / math.Max(b.keyDistinct(t, e.rc), 1)
				if est < nextEst {
					nextEst = est
					next = t
					nextEdge = e
				}
			}
		}
		if next < 0 {
			return fmt.Errorf("plan: join graph is disconnected")
		}
		cur, err = b.emitBinaryJoin(cur, nextEdge, nextEst)
		if err != nil {
			return err
		}
		joined[next] = true
	}
	return nil
}

// stagedWidth estimates the staged tuple width of a base table.
func (b *builder) stagedWidth(ti, keyCol int) int {
	s := b.tables[ti].Entry.Table.Schema()
	w := 0
	for ci := range b.needed[ti] {
		w += s.Column(ci).Size
	}
	if !b.needed[ti][keyCol] {
		w += s.Column(keyCol).Size
	}
	if w == 0 {
		w = s.Column(keyCol).Size
	}
	return w
}

// stageBaseTable builds the staging descriptor for a base table input of a
// join: filter, project to needed columns, and pre-process per algorithm.
// It returns the stage and the origin (table, column) of each staged column.
func (b *builder) stageBaseTable(ti, keyCol int, alg JoinAlgorithm) (*Stage, [][2]int) {
	schema := b.tables[ti].Entry.Table.Schema()
	st := &Stage{Input: InputRef{Base: ti}, EstRows: b.est[ti]}
	if !b.filtersUsed[ti] {
		for _, f := range b.filters[ti] {
			st.Filters = append(st.Filters, f.filter())
		}
		b.filtersUsed[ti] = true
		b.attachIndexScan(st, ti)
	}

	cols := make([]int, 0, len(b.needed[ti])+1)
	for ci := 0; ci < schema.NumColumns(); ci++ {
		if b.needed[ti][ci] || ci == keyCol {
			cols = append(cols, ci)
		}
	}
	origins := make([][2]int, 0, len(cols))
	for _, ci := range cols {
		c := schema.Column(ci)
		st.Cols = append(st.Cols, OutputColumn{
			Name:   b.tables[ti].Alias + "." + c.Name,
			Source: ci,
			Kind:   c.Kind,
			Size:   c.Size,
		})
		origins = append(origins, [2]int{ti, ci})
	}
	st.Schema = stageSchema(st.Cols)
	keyPos := b.stagedKeyPos(origins, ti, keyCol)
	b.applyJoinStaging(st, keyPos, ti, keyCol, alg)
	return st, origins
}

func (b *builder) stagedKeyPos(origins [][2]int, ti, keyCol int) int {
	for i, o := range origins {
		if o == [2]int{ti, keyCol} {
			return i
		}
	}
	panic("plan: staged key column missing")
}

// applyJoinStaging sets the stage action for a join input per algorithm.
func (b *builder) applyJoinStaging(st *Stage, keyPos, ti, keyCol int, alg JoinAlgorithm) {
	switch alg {
	case MergeJoin:
		st.Action = StageSort
		st.SortKeys = []int{keyPos}
	case FinePartitionJoin:
		st.Action = StagePartitionFine
		st.PartitionKey = keyPos
		st.FineValues = b.tables[ti].Entry.Directory(keyCol)
	case HybridJoin:
		st.Action = StagePartitionCoarse
		st.PartitionKey = keyPos
		st.Partitions = b.coarsePartitions(st)
		st.SortKeys = []int{keyPos}
		// Partitions are sorted lazily at join time, when pairs are
		// cache-resident (§V-B); the stage records the sort keys so
		// the join knows what order to establish.
	}
}

// coarsePartitions sizes M so the largest expected partition fits in half
// the L2 cache (§V-B).
func (b *builder) coarsePartitions(st *Stage) int {
	bytes := st.EstRows * float64(st.Schema.TupleSize())
	m := int(math.Ceil(bytes / (float64(b.opts.L2CacheBytes) / 2)))
	if m < 1 {
		m = 1
	}
	// Round up to a power of two for cheap modulo.
	p := 1
	for p < m {
		p <<= 1
	}
	return p
}

// emitBinaryJoin appends a join descriptor joining the current relation
// (nil for the first join) with a base table via edge e.
func (b *builder) emitBinaryJoin(cur *relation, e joinEdge, est float64) (*relation, error) {
	var leftStage *Stage
	var leftOrigins [][2]int
	var leftKeyPos int
	var leftSorted bool

	if cur == nil {
		alg := b.chooseBinaryAlgorithm(e, nil)
		lst, lo := b.stageBaseTable(e.lt, e.lc, alg)
		rst, ro := b.stageBaseTable(e.rt, e.rc, alg)
		j := &Join{
			Alg:    alg,
			Inputs: []Stage{*lst, *rst},
			Keys:   []int{b.stagedKeyPos(lo, e.lt, e.lc), b.stagedKeyPos(ro, e.rt, e.rc)},
		}
		j.EstRows = est
		origins := b.finishJoinSchemaWithOrigins(j, [][][2]int{lo, ro})
		b.plan.Joins = append(b.plan.Joins, j)
		return b.relationFromJoin(j, origins, e), nil
	}

	// Left side: previous join output.
	keyClassCol, ok := b.locateInRelation(cur, e.lt, e.lc)
	if !ok {
		// The edge may be stated with the base table on the left.
		e = joinEdge{e.rt, e.rc, e.lt, e.lc}
		keyClassCol, ok = b.locateInRelation(cur, e.lt, e.lc)
		if !ok {
			return nil, fmt.Errorf("plan: join key not present in intermediate result")
		}
	}
	alg := b.chooseBinaryAlgorithm(e, cur)
	leftStage = &Stage{Input: cur.ref, EstRows: cur.est}
	for i := 0; i < cur.schema.NumColumns(); i++ {
		c := cur.schema.Column(i)
		leftStage.Cols = append(leftStage.Cols, OutputColumn{Name: c.Name, Source: i, Kind: c.Kind, Size: c.Size})
	}
	leftStage.Schema = stageSchema(leftStage.Cols)
	leftKeyPos = keyClassCol
	leftSorted = cur.sortedBy >= 0 && cur.sortedBy == b.classOf[[2]int{e.lt, e.lc}]
	for i := range cur.loc {
		leftOrigins = append(leftOrigins, i)
	}
	// Rebuild origins in schema order.
	leftOrigins = make([][2]int, cur.schema.NumColumns())
	for tc, pos := range cur.loc {
		leftOrigins[pos] = tc
	}

	switch alg {
	case MergeJoin:
		if leftSorted {
			leftStage.Action = StageNone // interesting order: already sorted
		} else {
			leftStage.Action = StageSort
			leftStage.SortKeys = []int{leftKeyPos}
		}
	case FinePartitionJoin:
		leftStage.Action = StagePartitionFine
		leftStage.PartitionKey = leftKeyPos
		leftStage.FineValues = b.tables[e.rt].Entry.Directory(e.rc)
	case HybridJoin:
		leftStage.Action = StagePartitionCoarse
		leftStage.PartitionKey = leftKeyPos
		leftStage.Partitions = b.coarsePartitions(leftStage)
		leftStage.SortKeys = []int{leftKeyPos}
	}

	rst, ro := b.stageBaseTable(e.rt, e.rc, alg)
	j := &Join{
		Alg:    alg,
		Inputs: []Stage{*leftStage, *rst},
		Keys:   []int{leftKeyPos, b.stagedKeyPos(ro, e.rt, e.rc)},
	}
	j.EstRows = est
	origins := b.finishJoinSchemaWithOrigins(j, [][][2]int{leftOrigins, ro})
	b.plan.Joins = append(b.plan.Joins, j)
	return b.relationFromJoin(j, origins, e), nil
}

// chooseBinaryAlgorithm applies the paper's selection heuristics.
func (b *builder) chooseBinaryAlgorithm(e joinEdge, cur *relation) JoinAlgorithm {
	if alg, ok := b.forcedJoinAlg(e.rt, e.rc); ok {
		return alg
	}
	// Interesting order: if the existing intermediate is already sorted
	// on the key class, merging avoids re-staging entirely.
	if cur != nil && cur.sortedBy >= 0 && cur.sortedBy == b.classOf[[2]int{e.lt, e.lc}] {
		return MergeJoin
	}
	// Index order: when both sides are base tables carrying a fractal
	// B+-tree on a *unique* join key, both inputs stream in key order
	// without paying the sort — an interesting *physical* order (§IV), so
	// merging wins regardless of input size. Uniqueness is what makes the
	// tree order exploitable: with duplicate keys the leaf order differs
	// from the sort's tie permutation, so the executor would have to sort
	// anyway and the small-domain (fine-partition) choice below is better.
	// The fused executor exploits the traversal directly; staged engines
	// still sort, which costs them nothing they would not have paid under
	// the hybrid choice.
	if cur == nil && b.joinKeyIndexOrdered(e.lt, e.lc) && b.joinKeyIndexOrdered(e.rt, e.rc) {
		return MergeJoin
	}
	// Fine partitioning when the key domain is small enough for a
	// cache-resident value directory.
	right := &b.tables[e.rt].Entry.Stats.Columns[e.rc]
	if rightDV := right.DistinctValues; rightDV > 0 && rightDV <= b.opts.FinePartitionMaxValues &&
		right.DirectoryLen() == rightDV {
		return FinePartitionJoin
	}
	// Small inputs: sorting both sides is cheap and the merge's linear
	// access pattern wins.
	leftBytes := b.est[e.lt] * float64(b.stagedWidth(e.lt, e.lc))
	if cur != nil {
		leftBytes = cur.est * 64
	}
	rightBytes := b.est[e.rt] * float64(b.stagedWidth(e.rt, e.rc))
	if leftBytes <= 4*float64(b.opts.L2CacheBytes) && rightBytes <= 4*float64(b.opts.L2CacheBytes) {
		return MergeJoin
	}
	return HybridJoin
}

// forcedJoinAlg is the forced join algorithm on table ti's key column ci,
// if any — unless it is fine partitioning over a float key, which has no
// value directory: the heuristics choose then.
func (b *builder) forcedJoinAlg(ti, ci int) (JoinAlgorithm, bool) {
	f := b.opts.ForceJoinAlg
	if f == nil || *f == FinePartitionJoin && b.tables[ti].Entry.Table.Schema().Column(ci).Kind == types.Float {
		return 0, false
	}
	return *f, true
}

// joinKeyIndexOrdered reports whether a base table's join-key column is
// indexed AND unique, i.e. the B+-tree's leaf traversal is a total key
// order usable as a staging order (only Int/Date columns are indexable).
func (b *builder) joinKeyIndexOrdered(ti, ci int) bool {
	entry := b.tables[ti].Entry
	stats := &entry.Stats
	if stats.Rows == 0 || stats.Columns[ci].DistinctValues != stats.Rows {
		return false
	}
	return entry.Index(entry.Table.Schema().Column(ci).Name) != nil
}

// reconcilePartitions forces every coarse-partitioned input of a join to
// use the same partition count (corresponding partitions must align).
func reconcilePartitions(j *Join) {
	max := 0
	for i := range j.Inputs {
		if j.Inputs[i].Action == StagePartitionCoarse && j.Inputs[i].Partitions > max {
			max = j.Inputs[i].Partitions
		}
	}
	for i := range j.Inputs {
		if j.Inputs[i].Action == StagePartitionCoarse {
			j.Inputs[i].Partitions = max
		}
	}
}

// finishJoinSchema builds the join output schema keeping every staged
// column from every input.
// reconcileFineDirectories gives every fine-partitioned input the same
// value directory: the intersection of the per-input directories. Keys
// outside the intersection cannot produce join matches, so dropping them
// during staging is both correct and a free semi-join reduction. When one
// directory lies within the others — a key/foreign-key join — it is the
// intersection, and the plan shares the catalogue's snapshot; only
// otherwise does the plan get a directory of its own. Inputs whose key
// domain the catalogue did not track (a nil directory) do not narrow it.
// Disjoint domains intersect to an empty, non-nil directory: the
// executors tell "no row can join" from "no directory was planned".
func reconcileFineDirectories(j *Join) {
	if j.Alg != FinePartitionJoin {
		return
	}
	var common *catalog.Directory
	for i := range j.Inputs {
		if fv := j.Inputs[i].FineValues; fv != nil {
			if common == nil {
				common = fv
			} else {
				common = common.Meet(fv)
			}
		}
	}
	for i := range j.Inputs {
		if j.Inputs[i].Action == StagePartitionFine {
			j.Inputs[i].FineValues = common
		}
	}
}

func (b *builder) finishJoinSchema(j *Join) {
	reconcilePartitions(j)
	reconcileFineDirectories(j)
	var cols []types.Column
	for i := range j.Inputs {
		st := &j.Inputs[i]
		for c := 0; c < st.Schema.NumColumns(); c++ {
			col := st.Schema.Column(c)
			j.Out = append(j.Out, JoinOutput{Input: i, Col: c})
			cols = append(cols, col)
		}
	}
	j.Schema = types.NewSchema(cols...)
}

func (b *builder) finishJoinSchemaWithOrigins(j *Join, origins [][][2]int) map[[2]int]int {
	b.finishJoinSchema(j)
	loc := map[[2]int]int{}
	pos := 0
	for i := range j.Inputs {
		for c := 0; c < j.Inputs[i].Schema.NumColumns(); c++ {
			if origins != nil && origins[i][c][0] >= 0 {
				loc[origins[i][c]] = pos
			}
			pos++
		}
	}
	return loc
}

func (b *builder) relationFromJoin(j *Join, loc map[[2]int]int, e joinEdge) *relation {
	sorted := -1
	if j.Alg == MergeJoin {
		sorted = b.classOf[[2]int{e.lt, e.lc}]
	}
	return &relation{
		ref:      InputRef{Base: -1, Join: len(b.plan.Joins) - 1},
		schema:   j.Schema,
		est:      j.EstRows,
		loc:      loc,
		sortedBy: sorted,
	}
}

// locateInRelation finds the schema position of a base column inside an
// intermediate relation.
func (b *builder) locateInRelation(r *relation, ti, ci int) (int, bool) {
	pos, ok := r.loc[[2]int{ti, ci}]
	return pos, ok
}

// currentRelation returns the final joined relation, or a pseudo-relation
// over the single base table.
func (b *builder) currentRelation() *relation {
	if len(b.plan.Joins) == 0 {
		s := b.tables[0].Entry.Table.Schema()
		loc := map[[2]int]int{}
		for i := 0; i < s.NumColumns(); i++ {
			loc[[2]int{0, i}] = i
		}
		return &relation{ref: InputRef{Base: 0}, schema: s, est: b.est[0], loc: loc, sortedBy: -1}
	}
	last := b.plan.Joins[len(b.plan.Joins)-1]
	loc := map[[2]int]int{}
	pos := 0
	// Rebuild locations by matching staged column names back to tables.
	for i := range last.Inputs {
		for c := 0; c < last.Inputs[i].Schema.NumColumns(); c++ {
			name := last.Inputs[i].Schema.Column(c).Name
			if ti, ci, ok := b.parseStagedName(name); ok {
				loc[[2]int{ti, ci}] = pos
			}
			pos++
		}
	}
	sorted := -1
	if last.Alg == MergeJoin && len(last.Keys) > 0 {
		name := last.Inputs[0].Schema.Column(last.Keys[0]).Name
		if ti, ci, ok := b.parseStagedName(name); ok {
			if cl, isKey := b.classOf[[2]int{ti, ci}]; isKey {
				sorted = cl
			}
		}
	}
	return &relation{
		ref:      InputRef{Base: -1, Join: len(b.plan.Joins) - 1},
		schema:   last.Schema,
		est:      last.EstRows,
		loc:      loc,
		sortedBy: sorted,
	}
}

// parseStagedName splits "alias.column" back into catalogue coordinates.
func (b *builder) parseStagedName(name string) (int, int, bool) {
	dot := strings.IndexByte(name, '.')
	if dot < 0 {
		return 0, 0, false
	}
	ti, ok := b.aliasIdx[name[:dot]]
	if !ok {
		return 0, 0, false
	}
	ci := b.tables[ti].Entry.Table.Schema().ColumnIndex(name[dot+1:])
	if ci < 0 {
		return 0, 0, false
	}
	return ti, ci, true
}

func stageSchema(cols []OutputColumn) *types.Schema {
	out := make([]types.Column, len(cols))
	for i, c := range cols {
		out[i] = types.Column{Name: c.Name, Kind: c.Kind, Size: c.Size}
	}
	return types.NewSchema(out...)
}

// attachIndexScan marks the stage for index access when an equality filter
// targets an indexed Int/Date column and the predicate is selective enough
// that RID lookups beat a sequential scan (the break-even follows the
// paper's access-latency argument: random index probes only pay off when
// they touch a small fraction of the pages).
func (b *builder) attachIndexScan(st *Stage, ti int) {
	entry := b.tables[ti].Entry
	schema := entry.Table.Schema()
	for _, f := range st.Filters {
		if f.Op != sql.CmpEq {
			continue
		}
		col := schema.Column(f.Col)
		if col.Kind != types.Int && col.Kind != types.Date {
			continue
		}
		if entry.Index(col.Name) == nil {
			continue
		}
		dv := entry.Stats.Columns[f.Col].DistinctValues
		if dv < 20 {
			continue // touches >5% of rows: scan wins
		}
		// A parameterized filter carries its slot over: the probe key
		// resolves at bind time, so the index decision itself needs only
		// statistics, never the constant.
		st.IndexScan = &IndexScanSpec{Column: col.Name, Value: f.Val, Param: f.Param}
		return
	}
}
