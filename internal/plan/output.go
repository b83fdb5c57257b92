package plan

import (
	"fmt"
	"strings"

	"hique/internal/catalog"
	"hique/internal/sql"
	"hique/internal/types"
)

// bindScalar lowers a parsed scalar expression (no aggregates) against the
// relation's schema.
func (b *builder) bindScalar(e sql.Expr, rel *relation) (Expr, error) {
	switch v := e.(type) {
	case *sql.ColRef:
		ti, ci, err := b.resolveColumn(v)
		if err != nil {
			return nil, err
		}
		pos, ok := b.locateInRelation(rel, ti, ci)
		if !ok {
			return nil, fmt.Errorf("plan: column %s not available in intermediate result", v)
		}
		c := rel.schema.Column(pos)
		return &ColExpr{Col: pos, Name: c.Name, K: c.Kind}, nil
	case *sql.IntLit:
		return &ConstExpr{D: types.IntDatum(v.Value)}, nil
	case *sql.FloatLit:
		return &ConstExpr{D: types.FloatDatum(v.Value)}, nil
	case *sql.StringLit:
		return &ConstExpr{D: types.StringDatum(v.Value)}, nil
	case *sql.DateLit:
		return &ConstExpr{D: types.DateDatum(v.Days)}, nil
	case *sql.BinaryExpr:
		l, err := b.bindScalar(v.Left, rel)
		if err != nil {
			return nil, err
		}
		r, err := b.bindScalar(v.Right, rel)
		if err != nil {
			return nil, err
		}
		return &ArithExpr{Op: v.Op, L: l, R: r}, nil
	case *sql.AggExpr:
		return nil, fmt.Errorf("plan: aggregate %s in scalar context", v)
	case *sql.Param:
		return nil, fmt.Errorf("plan: parameter %d is not a comparison operand (parameters are supported in WHERE predicates only)", v.Index+1)
	default:
		return nil, fmt.Errorf("plan: unsupported expression %T", e)
	}
}

// outputName derives the result column name for a select item.
func outputName(item *sql.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	if c, ok := item.Expr.(*sql.ColRef); ok {
		return c.Column
	}
	return strings.ToLower(item.Expr.String())
}

// planOutput builds either the aggregation descriptor or the final
// projection stage.
func (b *builder) planOutput() error {
	rel := b.currentRelation()
	if b.stmt.HasAggregates() || len(b.stmt.GroupBy) > 0 {
		return b.planAggregation(rel)
	}
	return b.planFinalProjection(rel)
}

func (b *builder) planFinalProjection(rel *relation) error {
	st := &Stage{Input: rel.ref, EstRows: rel.est}
	if rel.ref.Base >= 0 && !b.filtersUsed[rel.ref.Base] {
		for _, f := range b.filters[rel.ref.Base] {
			st.Filters = append(st.Filters, f.filter())
		}
		b.filtersUsed[rel.ref.Base] = true
		b.attachIndexScan(st, rel.ref.Base)
	}
	names := map[string]int{}
	for i := range b.stmt.Select {
		item := &b.stmt.Select[i]
		name := uniqueName(outputName(item), names)
		b.plan.OutputNames = append(b.plan.OutputNames, name)
		e, err := b.bindScalar(item.Expr, rel)
		if err != nil {
			return err
		}
		oc := OutputColumn{Name: name, Source: -1, Compute: e, Kind: e.Kind(), Size: 8}
		if col, ok := e.(*ColExpr); ok {
			oc.Source = col.Col
			oc.Compute = nil
			oc.Size = rel.schema.Column(col.Col).Size
		}
		st.Cols = append(st.Cols, oc)
	}
	st.Schema = stageSchema(st.Cols)
	b.plan.Final = st
	return nil
}

func uniqueName(name string, seen map[string]int) string {
	if n, dup := seen[name]; dup {
		seen[name] = n + 1
		return fmt.Sprintf("%s_%d", name, n+1)
	}
	seen[name] = 0
	return name
}

func (b *builder) planAggregation(rel *relation) error {
	agg := &Agg{}

	// Stage the aggregation input: group columns first, then one column
	// per aggregate argument (computed expressions become computed
	// staged columns, so the aggregation loop reads plain fields).
	st := &Stage{Input: rel.ref, EstRows: rel.est}
	if rel.ref.Base >= 0 && !b.filtersUsed[rel.ref.Base] {
		for _, f := range b.filters[rel.ref.Base] {
			st.Filters = append(st.Filters, f.filter())
		}
		b.filtersUsed[rel.ref.Base] = true
		b.attachIndexScan(st, rel.ref.Base)
	}

	// Group columns.
	groupRelPos := make([]int, len(b.stmt.GroupBy)) // position in rel schema
	for i := range b.stmt.GroupBy {
		g := &b.stmt.GroupBy[i]
		ti, ci, err := b.resolveColumn(g)
		if err != nil {
			return err
		}
		pos, ok := b.locateInRelation(rel, ti, ci)
		if !ok {
			return fmt.Errorf("plan: grouping column %s not available", g)
		}
		groupRelPos[i] = pos
		c := rel.schema.Column(pos)
		st.Cols = append(st.Cols, OutputColumn{Name: c.Name, Source: pos, Kind: c.Kind, Size: c.Size})
		agg.GroupCols = append(agg.GroupCols, i)
	}

	// Select items: group-column refs or aggregates.
	names := map[string]int{}
	var outCols []types.Column
	for i := range b.stmt.Select {
		item := &b.stmt.Select[i]
		name := uniqueName(outputName(item), names)
		b.plan.OutputNames = append(b.plan.OutputNames, name)

		switch e := item.Expr.(type) {
		case *sql.ColRef:
			ti, ci, err := b.resolveColumn(e)
			if err != nil {
				return err
			}
			pos, ok := b.locateInRelation(rel, ti, ci)
			if !ok {
				return fmt.Errorf("plan: column %s not available", e)
			}
			gi := -1
			for g, rp := range groupRelPos {
				if rp == pos {
					gi = g
					break
				}
			}
			if gi < 0 {
				return fmt.Errorf("plan: column %s must appear in GROUP BY", e)
			}
			agg.Output = append(agg.Output, OutputRef{IsAgg: false, Index: gi})
			c := rel.schema.Column(pos)
			outCols = append(outCols, types.Column{Name: name, Kind: c.Kind, Size: c.Size})

		case *sql.AggExpr:
			spec := AggSpec{Func: e.Func, Col: -1, Star: e.Star, Name: name}
			if !e.Star {
				bound, err := b.bindScalar(e.Arg, rel)
				if err != nil {
					return err
				}
				// The accumulators have integer and float lanes only; a
				// CHAR argument would be read as its first eight bytes.
				if e.Func != sql.AggCount && bound.Kind() == types.String {
					return fmt.Errorf("plan: %s over CHAR argument %s is not supported (aggregate arguments are INT, FLOAT or DATE; COUNT takes any)", e.Func, e.Arg)
				}
				// Reuse a staged column if the same source column
				// is already staged; otherwise add one.
				spec.Col = b.stageAggArg(st, bound)
			}
			switch e.Func {
			case sql.AggCount:
				spec.Kind = types.Int
			case sql.AggAvg:
				spec.Kind = types.Float
			default:
				if spec.Col >= 0 {
					spec.Kind = st.Cols[spec.Col].Kind
				} else {
					spec.Kind = types.Int
				}
				if spec.Kind == types.Date {
					spec.Kind = types.Int
				}
			}
			agg.Output = append(agg.Output, OutputRef{IsAgg: true, Index: len(agg.Aggs)})
			agg.Aggs = append(agg.Aggs, spec)
			outCols = append(outCols, types.Column{Name: name, Kind: spec.Kind, Size: 8})

		default:
			return fmt.Errorf("plan: select item %s must be a grouping column or an aggregate", item.Expr)
		}
	}

	st.Schema = stageSchema(st.Cols)
	agg.Schema = types.NewSchema(outCols...)

	// Estimate group count.
	agg.EstGroups = 1
	for i := range b.stmt.GroupBy {
		dv := b.groupColumnDistinct(rel, groupRelPos[i], &b.stmt.GroupBy[i])
		agg.EstGroups *= dv
	}
	if agg.EstGroups > rel.est {
		agg.EstGroups = rel.est
	}
	if agg.EstGroups < 1 {
		agg.EstGroups = 1
	}

	b.chooseAggAlgorithm(agg, st, rel, groupRelPos)
	agg.Input = *st
	b.plan.Agg = agg
	return nil
}

// stageAggArg adds (or reuses) a staged column for an aggregate argument
// and returns its staged position.
func (b *builder) stageAggArg(st *Stage, bound Expr) int {
	if col, ok := bound.(*ColExpr); ok {
		for i := range st.Cols {
			if st.Cols[i].Source == col.Col && st.Cols[i].Compute == nil {
				return i
			}
		}
		st.Cols = append(st.Cols, OutputColumn{
			Name:   fmt.Sprintf("agg_arg_%d", len(st.Cols)),
			Source: col.Col,
			Kind:   col.K,
			Size:   8,
		})
		return len(st.Cols) - 1
	}
	st.Cols = append(st.Cols, OutputColumn{
		Name:    fmt.Sprintf("agg_arg_%d", len(st.Cols)),
		Source:  -1,
		Compute: bound,
		Kind:    bound.Kind(),
		Size:    8,
	})
	return len(st.Cols) - 1
}

// groupColumnDistinct estimates the distinct count of a grouping column.
func (b *builder) groupColumnDistinct(rel *relation, pos int, g *sql.ColRef) float64 {
	if ti, ci, err := b.resolveColumn(g); err == nil {
		dv := float64(b.tables[ti].Entry.Stats.Columns[ci].DistinctValues)
		if dv >= 1 {
			return dv
		}
	}
	_ = pos
	return 100 // default guess for unknown intermediates
}

// chooseAggAlgorithm applies §V-B's selection rule: map aggregation when
// the value directories plus aggregate arrays fit comfortably in L2, sort
// aggregation when the input already carries the right order, hybrid
// hash-sort otherwise. A forced algorithm applies unless it is map
// aggregation over a grouping attribute the catalogue keeps no directory
// for (a Float): the rule chooses then.
func (b *builder) chooseAggAlgorithm(agg *Agg, st *Stage, rel *relation, groupRelPos []int) {
	cols, dirBytes, product, ok := b.aggDirectories(rel)
	if f := b.opts.ForceAggAlg; f != nil {
		if *f != MapAggregation || ok || len(agg.GroupCols) == 0 {
			agg.Alg = *f
			if agg.Alg == MapAggregation {
				agg.Directories = b.directories(cols)
			}
			b.configureAggStaging(agg, st)
			return
		}
	}

	// Map aggregation requires value directories for every grouping
	// attribute; those exist for grouping columns that resolve to base
	// table columns with small domains — including through a join, since
	// a join never widens a column's value domain. The cache rule of
	// §V-B: directories plus aggregate arrays must fit in the lowest
	// cache level. The rule reads the directories' sizes; only the
	// chosen plan takes their snapshots.
	if ok {
		arrayBytes := product * 8 * float64(len(agg.Aggs)+1)
		if dirBytes+arrayBytes <= float64(b.opts.L2CacheBytes)/2 {
			agg.Alg = MapAggregation
			agg.Directories = b.directories(cols)
			b.configureAggStaging(agg, st)
			return
		}
	}

	// Sort aggregation when the input is already ordered on the single
	// grouping attribute (interesting order from a merge join).
	if len(groupRelPos) == 1 && rel.sortedBy >= 0 {
		if ti, ci, err := b.resolveColumn(&b.stmt.GroupBy[0]); err == nil {
			if cl, isKey := b.classOf[[2]int{ti, ci}]; isKey && cl == rel.sortedBy {
				agg.Alg = SortAggregation
				agg.Input.Action = StageNone
				b.configureAggStaging(agg, st)
				// Already sorted: no staging action needed.
				st.Action = StageNone
				st.SortKeys = nil
				return
			}
		}
	}

	agg.Alg = HybridAggregation
	b.configureAggStaging(agg, st)
}

// aggDirectories resolves each grouping attribute to the base column
// whose value directory map aggregation would probe, and sizes them: the
// directories' bytes and the product of their sizes, the group space. It
// returns ok=false if any grouping attribute lacks a directory (large
// domain, or a column the catalogue keeps no values for). Grouping
// columns are resolved to their base-table origin — a join restricts but
// never widens a column's domain, so the base directory stays a valid
// (possibly sparse) group index.
func (b *builder) aggDirectories(rel *relation) (cols [][2]int, dirBytes, product float64, ok bool) {
	if len(b.stmt.GroupBy) == 0 {
		return nil, 0, 0, false
	}
	cols = make([][2]int, len(b.stmt.GroupBy))
	product = 1
	for i := range b.stmt.GroupBy {
		ti, ci, err := b.resolveColumn(&b.stmt.GroupBy[i])
		if err != nil {
			return nil, 0, 0, false
		}
		if rel.ref.Base >= 0 && ti != rel.ref.Base {
			return nil, 0, 0, false
		}
		n := b.tables[ti].Entry.Stats.Columns[ci].DirectoryLen()
		if n == 0 {
			return nil, 0, 0, false
		}
		cols[i] = [2]int{ti, ci}
		dirBytes += float64(n * 16)
		product *= float64(n)
	}
	return cols, dirBytes, product, true
}

// directories takes the catalogue's snapshots of the given base columns'
// value directories.
func (b *builder) directories(cols [][2]int) []*catalog.Directory {
	dirs := make([]*catalog.Directory, len(cols))
	for i, c := range cols {
		dirs[i] = b.tables[c[0]].Entry.Directory(c[1])
	}
	return dirs
}

// configureAggStaging sets the stage action matching the algorithm.
func (b *builder) configureAggStaging(agg *Agg, st *Stage) {
	groupStagedCols := make([]int, len(agg.GroupCols))
	copy(groupStagedCols, agg.GroupCols)
	switch agg.Alg {
	case MapAggregation:
		st.Action = StageNone // single pass, no staging (§V-B)
	case SortAggregation:
		st.Action = StageSort
		st.SortKeys = groupStagedCols
	case HybridAggregation:
		st.Action = StagePartitionCoarse
		if len(groupStagedCols) > 0 {
			st.PartitionKey = groupStagedCols[0]
		}
		st.Partitions = b.coarsePartitions(st)
		st.SortKeys = groupStagedCols
		st.SortPartitions = true
	}
}

// planSort resolves ORDER BY items against the result schema: column
// references match output aliases and schema names; any other expression
// (an aggregate or arithmetic over the select list) matches the select
// item with identical rendered text, so ORDER BY SUM(x * y) DESC keys on
// the aggregate's result column.
func (b *builder) planSort() error {
	if len(b.stmt.OrderBy) == 0 {
		return nil
	}
	s := &Sort{}
	for i := range b.stmt.OrderBy {
		item := &b.stmt.OrderBy[i]
		idx := b.resolveResultColumn(item.Expr)
		if idx < 0 {
			return fmt.Errorf("plan: ORDER BY key %s not in result", item.Expr)
		}
		s.Keys = append(s.Keys, SortKey{Col: idx, Desc: item.Desc})
	}
	b.plan.Sort = s
	return nil
}

// resolveResultColumn maps an expression to the result column it names: a
// bare identifier matches a select alias first, then a result schema
// column name (qualified or not); any other expression matches a select
// item with identical rendered text (SUM(x) in HAVING or ORDER BY finds
// SUM(x) in the select list — result column j is select item j in both
// the aggregate and projection paths). Returns -1 when nothing matches.
func (b *builder) resolveResultColumn(e sql.Expr) int {
	if col, ok := e.(*sql.ColRef); ok {
		if col.Table == "" {
			for j, n := range b.plan.OutputNames {
				if n == col.Column {
					return j
				}
			}
		}
		schema := b.plan.ResultSchema()
		for j := 0; j < schema.NumColumns(); j++ {
			n := schema.Column(j).Name
			if n == col.Column || strings.HasSuffix(n, "."+col.Column) {
				return j
			}
		}
		return -1
	}
	want := strings.ToLower(e.String())
	for j := range b.stmt.Select {
		if strings.ToLower(b.stmt.Select[j].Expr.String()) == want {
			return j
		}
	}
	return -1
}

// planHaving resolves HAVING conjuncts against the aggregated result
// schema: one side must name a select output (by alias or by matching
// expression text), the other must fold to a constant. The planner bakes
// each conjunct as a HavingFilter the engines apply between aggregation
// and the final sort.
func (b *builder) planHaving() error {
	if len(b.stmt.Having) == 0 {
		return nil
	}
	if b.plan.Agg == nil {
		return fmt.Errorf("plan: HAVING requires an aggregated query")
	}
	schema := b.plan.ResultSchema()
	for i := range b.stmt.Having {
		pr := &b.stmt.Having[i]
		idx, op := -1, pr.Op
		var operand sql.Expr
		if j := b.resolveResultColumn(pr.Left); j >= 0 {
			idx, operand = j, foldConst(pr.Right)
		} else if j := b.resolveResultColumn(pr.Right); j >= 0 {
			idx, op, operand = j, pr.Op.Flip(), foldConst(pr.Left)
		}
		if idx < 0 {
			return fmt.Errorf("plan: HAVING condition %s does not reference a select output", pr)
		}
		if operand == nil {
			return fmt.Errorf("plan: HAVING comparison value in %s must be a constant", pr)
		}
		d, err := literalDatum(operand, schema.Column(idx).Kind)
		if err != nil {
			return err
		}
		b.plan.Having = append(b.plan.Having, HavingFilter{Col: idx, Op: op, Val: d})
	}
	return nil
}
