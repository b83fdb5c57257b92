package plan

import (
	"fmt"
	"strings"

	"hique/internal/catalog"
	"hique/internal/morsel"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/types"
)

// InputRef names the source of an operator input: a base table from the
// FROM clause, or the materialised output of an earlier operator in the
// descriptor list.
type InputRef struct {
	// Base is an index into Plan.Tables, or -1 when the input is the
	// output of a previous join.
	Base int
	// Join is the index into Plan.Joins producing the input (valid when
	// Base == -1).
	Join int
}

func (r InputRef) String() string {
	if r.Base >= 0 {
		return fmt.Sprintf("table[%d]", r.Base)
	}
	return fmt.Sprintf("join[%d]", r.Join)
}

// TableInput is one FROM-clause table resolved against the catalogue.
type TableInput struct {
	Name  string
	Alias string
	Entry *catalog.TableEntry
}

// Filter is a selection predicate applied during staging: input column
// compared against a constant. The constant is either baked into Val at
// plan time (literal-specialized plans) or supplied through the bind
// vector at execution time (parameterized plans).
type Filter struct {
	Col int
	Op  sql.CmpOp
	Val types.Datum
	// Param is 1 + the bind-vector slot supplying the comparison value,
	// or 0 (the zero value) when Val carries a baked literal. Plan.Bind
	// resolves parameter slots into Val; engines never see a non-zero
	// Param. Read through Slot.
	Param int
}

// Slot returns the bind-vector slot and true when the comparison value is
// a parameter; (0, false) when Val is a baked literal.
func (f Filter) Slot() (int, bool) { return f.Param - 1, f.Param > 0 }

func (f Filter) String() string {
	if slot, ok := f.Slot(); ok {
		return fmt.Sprintf("col%d %s $%d", f.Col, f.Op, slot)
	}
	return fmt.Sprintf("col%d %s %v", f.Col, f.Op, f.Val)
}

// OutputColumn defines one column of a staged schema: either a direct copy
// of an input column or a computed scalar expression.
type OutputColumn struct {
	Name string
	// Source is the input column index for direct copies; -1 for
	// computed columns.
	Source int
	// Compute is the bound expression for computed columns; nil for
	// direct copies.
	Compute Expr
	Kind    types.Kind
	Size    int
}

// StageAction says how the staging step pre-processes its materialised
// output for the operator that consumes it (paper §V-B, "Input staging").
type StageAction int

const (
	// StageNone materialises the filtered projection only.
	StageNone StageAction = iota
	// StageSort sorts the staged output on SortKeys.
	StageSort
	// StagePartitionFine partitions by exact key value through a value
	// directory.
	StagePartitionFine
	// StagePartitionCoarse partitions by hash-and-modulo.
	StagePartitionCoarse
)

func (a StageAction) String() string {
	return [...]string{"none", "sort", "partition(fine)", "partition(coarse)"}[a]
}

// IndexScanSpec asks the engine to fetch the stage's input through a
// fractal B+-tree index instead of a full scan: an equality predicate on
// an indexed column resolves to RID lookups (paper §IV: the system's
// memory-efficient indexes). Engines without index support ignore it and
// evaluate the equivalent filter, which stays in Filters.
type IndexScanSpec struct {
	// Column is the indexed column's name in the base table.
	Column string
	// Value is the equality key.
	Value types.Datum
	// Param is 1 + the bind-vector slot supplying the probe key at
	// execution time, 0 when Value is baked (same encoding as
	// Filter.Param); Plan.Bind resolves it.
	Param int
}

// Slot returns the bind-vector slot and true when the probe key is a
// parameter.
func (s IndexScanSpec) Slot() (int, bool) { return s.Param - 1, s.Param > 0 }

// Key returns the probe key: the baked Value, or the parameter's value
// from the bind vector.
func (s *IndexScanSpec) Key(params []types.Datum) int64 {
	if slot, ok := s.Slot(); ok {
		return params[slot].I
	}
	return s.Value.I
}

// Stage describes the data-staging step for one operator input: scan,
// filter, project (dropping unused fields to shrink tuples), and optionally
// sort or partition, interleaved in one pass (paper §IV step 1).
type Stage struct {
	Input   InputRef
	Filters []Filter
	Cols    []OutputColumn
	Schema  *types.Schema

	// IndexScan, when non-nil, lets index-aware engines replace the
	// table scan with index lookups. The matching filter remains in
	// Filters so index-unaware engines stay correct.
	IndexScan *IndexScanSpec

	Action StageAction
	// SortKeys are column indexes in the staged schema (ascending).
	SortKeys []int
	// PartitionKey is the staged-schema column for partitioning actions.
	PartitionKey int
	// Partitions is M, the partition count, for coarse partitioning.
	Partitions int
	// FineValues is the value directory for fine partitioning: the
	// catalogue's snapshot of the key column's, or the join inputs'
	// intersection.
	FineValues *catalog.Directory
	// SortPartitions requests sorting each partition on SortKeys after
	// partitioning (the hybrid hash-sort staging of §V-B).
	SortPartitions bool
	// EstRows is the optimizer's cardinality estimate after filtering.
	EstRows float64
}

// IsIdentity reports whether the stage is a pure pass-through over an
// input with the given schema: no filters, no index access, and a
// projection that copies every input column in order at the same width.
// Such a stage adds nothing but a tuple-by-tuple copy, so engines may
// elide the materialisation and hand the input through unchanged (the
// staged schema's column names may still differ — consumers address
// staged tuples by offset, which the identity condition preserves).
func (st *Stage) IsIdentity(in *types.Schema) bool {
	if len(st.Filters) != 0 || st.IndexScan != nil {
		return false
	}
	if len(st.Cols) != in.NumColumns() {
		return false
	}
	for i := range st.Cols {
		c := &st.Cols[i]
		if c.Source != i || c.Compute != nil {
			return false
		}
		if ic := in.Column(i); c.Kind != ic.Kind || c.Size != ic.Size {
			return false
		}
	}
	return true
}

// Projectable reports whether the compiled projector can evaluate every
// column of the stage: direct copies of any kind, computed columns of a
// numeric kind (a computed CHAR would need per-tuple allocation).
func (st *Stage) Projectable() bool {
	for i := range st.Cols {
		c := &st.Cols[i]
		if c.Source >= 0 && c.Compute == nil {
			continue
		}
		switch c.Compute.Kind() {
		case types.Int, types.Float, types.Date:
		default:
			return false
		}
	}
	return true
}

// JoinAlgorithm enumerates the paper's join strategies (§V-B). All of them
// instantiate the same nested-loops template (Listing 2) and differ only in
// staging and in-loop extras.
type JoinAlgorithm int

const (
	// MergeJoin stages both inputs sorted and merges linearly.
	MergeJoin JoinAlgorithm = iota
	// FinePartitionJoin partitions both inputs by key value; all tuples
	// in corresponding partitions match.
	FinePartitionJoin
	// HybridJoin is hybrid hash-sort-merge: coarse partitioning, then
	// sort corresponding partitions just before merging them so both
	// stay L2-resident (the paper's preferred hash-join variant).
	HybridJoin
)

func (a JoinAlgorithm) String() string {
	return [...]string{"merge", "fine-partition", "hybrid-hash-sort-merge"}[a]
}

// JoinOutput maps one output column to (input index, staged column index).
type JoinOutput struct {
	Input int
	Col   int
}

// Join is one join operator descriptor. Binary joins have two inputs; join
// teams (sets of tables equi-joined on a common key, §V-B) have more.
type Join struct {
	Alg JoinAlgorithm
	// Inputs are the staging specs, one per joined input.
	Inputs []Stage
	// Keys gives the join-key column in each staged input's schema.
	Keys []int
	// Out maps output schema positions to staged input columns.
	Out []JoinOutput
	// Schema is the join's materialised output schema.
	Schema *types.Schema
	// EstRows is the optimizer's output-cardinality estimate.
	EstRows float64
}

// FusionEligible reports whether the join's shape allows the holistic
// fused pipeline: a join of k ≥ 2 inputs — a binary join or a join team —
// whose inputs are base tables — or, when chainFed is set (every join of
// a left-deep chain but the first), the previous join's output on one
// side — whose staging matches the algorithm (sorted inputs for merge
// join, coarse partitions for the hybrid hash-sort-merge join, a value
// directory for the fine-partition join) and whose staged columns are
// all direct copies. A chain-fed merge input may also be unstaged: the
// previous merge join already emits it in key order. Filters and index
// specs on the inputs may carry parameter slots — including on the
// join-key columns themselves — since the fused executor reads the bind
// vector at run time. This is the one structural predicate: the planner
// and the generator agree on what "fusible" means through it.
func (j *Join) FusionEligible(chainFed bool) bool {
	if len(j.Inputs) < 2 || len(j.Keys) != len(j.Inputs) {
		return false
	}
	for i := range j.Inputs {
		st := &j.Inputs[i]
		fed := st.Input.Base < 0
		if fed && !chainFed {
			return false
		}
		switch j.Alg {
		case MergeJoin:
			if st.Action != StageSort && !(fed && st.Action == StageNone) {
				return false
			}
		case HybridJoin:
			if st.Action != StagePartitionCoarse || st.Partitions <= 0 {
				return false
			}
		case FinePartitionJoin:
			// A missing directory (nil, as opposed to an empty one) is a
			// plan-level error.
			if st.Action != StagePartitionFine || st.FineValues == nil {
				return false
			}
		default:
			return false
		}
		for k := range st.Cols {
			if st.Cols[k].Source < 0 || st.Cols[k].Compute != nil {
				return false
			}
		}
	}
	return true
}

// AggAlgorithm enumerates the aggregation strategies of §V-B.
type AggAlgorithm int

const (
	// SortAggregation scans an input staged sorted on the grouping
	// attributes, emitting each group as it closes.
	SortAggregation AggAlgorithm = iota
	// HybridAggregation hash-partitions on the first grouping attribute,
	// sorts each partition on all grouping attributes, then scans.
	HybridAggregation
	// MapAggregation uses per-attribute value directories and the offset
	// formula of Figure 4 to update aggregate arrays in one pass, with
	// no staging.
	MapAggregation
)

func (a AggAlgorithm) String() string {
	return [...]string{"sort", "hybrid-hash-sort", "map"}[a]
}

// AggSpec is one aggregate computation over the staged input schema.
type AggSpec struct {
	Func sql.AggFunc
	// Col is the staged-schema argument column; -1 for COUNT(*).
	Col  int
	Star bool
	Name string
	Kind types.Kind
}

// OutputRef maps one select item to the aggregation output: either a group
// column or an aggregate slot.
type OutputRef struct {
	// IsAgg selects between group columns and aggregate results.
	IsAgg bool
	// Index is a group-column position (into GroupCols) or an aggregate
	// position (into Aggs).
	Index int
}

// Agg is the aggregation operator descriptor.
type Agg struct {
	Alg   AggAlgorithm
	Input Stage
	// GroupCols are grouping attributes in the staged schema.
	GroupCols []int
	Aggs      []AggSpec
	// Output maps each select item to group cols / aggregates, defining
	// the result schema order.
	Output []OutputRef
	// Schema is the result schema (select-list shaped).
	Schema *types.Schema
	// Directories hold the per-attribute value directories for map
	// aggregation, parallel to GroupCols (paper Fig. 4): the catalogue's
	// snapshots of the grouping columns'.
	Directories []*catalog.Directory
	// EstGroups is the optimizer's estimate of the group count.
	EstGroups float64
}

// FusionEligible reports whether the aggregation's algorithm and staging
// action are ones the fused pipeline can evaluate: sort aggregation over
// an input that is already ordered (StageNone, the interesting-order
// case) or explicitly sorted (StageSort), hybrid hash-sort aggregation
// over coarse partitions, and map aggregation through its value
// directories (the Figure 4 offset formula updates aggregate arrays
// inside the join loop — the fully-fused headline pipeline; a
// group-less aggregate is the one-group map and needs none).
func (a *Agg) FusionEligible() bool {
	switch a.Alg {
	case SortAggregation:
		return a.Input.Action == StageNone || a.Input.Action == StageSort
	case HybridAggregation:
		return a.Input.Action == StagePartitionCoarse && a.Input.Partitions > 0
	case MapAggregation:
		return a.Input.Action == StageNone && len(a.Directories) == len(a.GroupCols)
	}
	return false
}

// HavingFilter is one HAVING conjunct, resolved against the aggregated
// result schema: result column Col compared against the baked constant
// Val. Engines apply the conjunction after aggregation and before the
// final sort; the comparison delegates to CmpOp.Holds over types.Compare,
// so every engine filters groups identically.
type HavingFilter struct {
	Col int
	Op  sql.CmpOp
	Val types.Datum
}

func (h HavingFilter) String() string {
	return fmt.Sprintf("col%d %s %v", h.Col, h.Op, h.Val)
}

// SortKey is one ORDER BY key over the final result schema.
type SortKey struct {
	Col  int
	Desc bool
}

// Sort is the final ordering operator.
type Sort struct {
	Keys []SortKey
}

// ParamSlot describes one bind-vector position of a parameterized plan:
// the column kind the parameter compares against (bind-time coercion
// targets it), the column's byte width (write plans enforce CHAR(n)
// capacity on bound string values; zero means unchecked), and the
// column's name for error messages.
type ParamSlot struct {
	Kind   types.Kind
	Size   int
	Column string
}

// Plan is the optimizer output: the topologically sorted operator list
// (joins first, then at most one aggregation and one sort, as in §IV),
// plus the final projection for non-aggregate queries.
type Plan struct {
	Stmt   *sql.SelectStmt
	Tables []TableInput

	// Params describes the bind vector, indexed by placeholder position.
	// Empty for literal-specialized plans; non-empty plans must be bound
	// with Bind before execution.
	Params []ParamSlot

	// Joins in execution order. Each join's inputs reference base tables
	// or earlier joins only.
	Joins []*Join

	// Agg is the aggregation operator, if the query aggregates.
	Agg *Agg

	// Having filters aggregated groups (conjunction over the result
	// schema), applied after Agg and before Sort/Limit. Always empty when
	// Agg is nil.
	Having []HavingFilter

	// Final is the select-shaped projection stage for queries without
	// aggregation (reads the last join's output or the single base
	// table). Nil when Agg is set.
	Final *Stage

	// Sort is the final ordering, applied to the select-shaped result.
	Sort *Sort

	// Limit truncates the result; -1 means no limit.
	Limit int

	// OutputNames are the result column names, parallel to the select
	// list.
	OutputNames []string

	// Trace, when non-nil, asks the engines to record per-stage row
	// counts and timings (EXPLAIN ANALYZE). It is set only on
	// per-execution plan copies — a plan stored in the cache and shared
	// across concurrent executions must keep it nil. Bind propagates it
	// into bound copies.
	Trace *Trace

	// Parallelism is the worker target for morsel-driven parallel
	// execution (Options.Parallelism, captured at build time so the
	// compiled artefact carries it): 0 resolves to GOMAXPROCS, 1 forces
	// serial. Pool, when non-nil, bounds the helper goroutines parallel
	// phases may spawn — the owning DB attaches its pool after planning;
	// a nil pool spawns freely (plans built outside a DB). Like Trace,
	// both are execution attachments, not optimizer outputs.
	Parallelism int
	Pool        *morsel.Pool
}

// Executor runs a bound plan to its result table: the one surface every
// engine implements — the generated code at either level, the operator
// walk, the iterator and column-store comparators. A DB takes one at
// Open (hique.WithEngine); the differential tests and the experiments
// run plans through it directly.
type Executor interface {
	Name() string
	Execute(p *Plan) (*storage.Table, error)
}

// ResultSchema returns the schema of the query result.
func (p *Plan) ResultSchema() *types.Schema {
	if p.Agg != nil {
		return p.Agg.Schema
	}
	return p.Final.Schema
}

// Explain renders a human-readable plan description.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Query: %s\n", p.Stmt)
	for i := range p.Params {
		fmt.Fprintf(&b, "Param[%d]: %s %v\n", i, p.Params[i].Column, p.Params[i].Kind)
	}
	for i, t := range p.Tables {
		fmt.Fprintf(&b, "Table[%d]: %s (alias %s, %d rows)\n", i, t.Name, t.Alias, t.Entry.Stats.Rows)
	}
	for i, j := range p.Joins {
		fmt.Fprintf(&b, "Join[%d]: %s over %d inputs (est %.0f rows)\n", i, j.Alg, len(j.Inputs), j.EstRows)
		for k := range j.Inputs {
			st := &j.Inputs[k]
			fmt.Fprintf(&b, "  input %d: %s stage=%s key=col%d filters=%d cols=%d (est %.0f rows)\n",
				k, st.Input, st.Action, j.Keys[k], len(st.Filters), len(st.Cols), st.EstRows)
		}
	}
	if p.Agg != nil {
		fmt.Fprintf(&b, "Aggregate: %s groups=%d aggs=%d (est %.0f groups)\n",
			p.Agg.Alg, len(p.Agg.GroupCols), len(p.Agg.Aggs), p.Agg.EstGroups)
		fmt.Fprintf(&b, "  input: %s stage=%s\n", p.Agg.Input.Input, p.Agg.Input.Action)
	}
	if len(p.Having) > 0 {
		parts := make([]string, len(p.Having))
		for i, h := range p.Having {
			parts[i] = h.String()
		}
		fmt.Fprintf(&b, "Having: %s\n", strings.Join(parts, " AND "))
	}
	if p.Final != nil {
		fmt.Fprintf(&b, "Project: %s -> %d cols\n", p.Final.Input, len(p.Final.Cols))
	}
	if p.Sort != nil {
		fmt.Fprintf(&b, "Sort: %d keys\n", len(p.Sort.Keys))
	}
	if p.Limit >= 0 {
		fmt.Fprintf(&b, "Limit: %d\n", p.Limit)
	}
	return b.String()
}
