// Write plans: the descriptor form of DML statements. The paper's code
// generator targets query *evaluation*; writes never touch the operator
// templates, so a write plan is a flat descriptor — target table, value
// rows, filters — that the execution layer applies directly under the
// table's writer lock. Filters and bind-parameter slots reuse the read
// path's machinery (Filter, ParamSlot, the Param slot+1 encoding), so a
// parameterized DELETE binds exactly like a parameterized SELECT.
package plan

import (
	"fmt"

	"hique/internal/catalog"
	"hique/internal/sql"
	"hique/internal/types"
)

// WriteKind enumerates the DML statement forms.
type WriteKind int

const (
	// WriteInsert appends value rows.
	WriteInsert WriteKind = iota
	// WriteDelete removes rows matching the filters.
	WriteDelete
	// WriteUpdate assigns set columns on rows matching the filters.
	WriteUpdate
)

// String names the kind.
func (k WriteKind) String() string {
	return [...]string{"insert", "delete", "update"}[k]
}

// WriteValue is one value a DML statement stores: either a literal datum
// baked at plan time, or a bind-vector slot resolved at execution time
// (Param is 1 + slot, the same safe encoding Filter.Param uses).
type WriteValue struct {
	Val   types.Datum
	Param int
}

// Slot returns the bind-vector slot and true when the value is a
// parameter; (0, false) when Val carries a baked literal.
func (v WriteValue) Slot() (int, bool) { return v.Param - 1, v.Param > 0 }

// SetColumn is one UPDATE assignment target: the table-schema column
// index and the value to store.
type SetColumn struct {
	Col int
	Val WriteValue
}

// WritePlan is the planned form of a DML statement. Cached write plans
// are shared across executions; Bind produces an execution-ready copy
// with every parameter slot resolved. A write plan depends only on the
// catalogued table's identity and schema — never on statistics — so it
// stays valid as statistics change; the executor revalidates Entry
// against the catalogue under the writer lock before applying it.
type WritePlan struct {
	Kind   WriteKind
	Table  string
	Entry  *catalog.TableEntry
	Schema *types.Schema

	// Params describes the bind vector, indexed by placeholder position.
	Params []ParamSlot

	// Rows are the INSERT value rows in schema column order.
	Rows [][]WriteValue
	// Filters select the affected rows for DELETE and UPDATE; empty means
	// every row.
	Filters []Filter
	// Sets are the UPDATE assignments.
	Sets []SetColumn
}

// BuildWrite plans a DML statement against the catalogue.
func BuildWrite(stmt sql.Stmt, cat *catalog.Catalog) (*WritePlan, error) {
	switch s := stmt.(type) {
	case *sql.InsertStmt:
		return buildInsert(s, cat)
	case *sql.DeleteStmt:
		return buildDelete(s, cat)
	case *sql.UpdateStmt:
		return buildUpdate(s, cat)
	}
	return nil, fmt.Errorf("plan: %T is not a DML statement", stmt)
}

// writeBuilder collects bind-vector slots while lowering a DML statement.
type writeBuilder struct {
	table      string
	schema     *types.Schema
	params     []ParamSlot
	paramsSeen []bool
}

func newWriteBuilder(table string, schema *types.Schema, numParams int) *writeBuilder {
	wb := &writeBuilder{table: table, schema: schema}
	if numParams > 0 {
		wb.params = make([]ParamSlot, numParams)
		wb.paramsSeen = make([]bool, numParams)
	}
	return wb
}

// value lowers a constant expression targeting column ci: parameters
// record a slot typed by the column, literals coerce through the same
// rules the read path's literal-specialized filters use. stored marks a
// value that will be written into the column (INSERT rows, UPDATE SET):
// only those slots carry the CHAR(n) width, so bind-time coercion rejects
// oversized strings before they would truncate — comparison slots stay
// width-free (an oversized comparand is legal; it just never matches
// equality).
func (wb *writeBuilder) value(e sql.Expr, ci int, stored bool) (WriteValue, error) {
	c := wb.schema.Column(ci)
	if prm, ok := e.(*sql.Param); ok {
		if prm.Index < 0 || prm.Index >= len(wb.params) {
			return WriteValue{}, fmt.Errorf("plan: placeholder index %d out of range (statement has %d)", prm.Index, len(wb.params))
		}
		slot := ParamSlot{Kind: c.Kind, Column: wb.table + "." + c.Name}
		if stored {
			slot.Size = c.Size
		}
		wb.params[prm.Index] = slot
		wb.paramsSeen[prm.Index] = true
		return WriteValue{Param: prm.Index + 1}, nil
	}
	d, err := literalDatum(e, c.Kind)
	if err != nil {
		return WriteValue{}, err
	}
	return WriteValue{Val: d}, nil
}

// column resolves a column reference against the target table; the
// qualifier, if any, must name the table itself.
func (wb *writeBuilder) column(c *sql.ColRef) (int, error) {
	if c.Table != "" && c.Table != wb.table {
		return 0, fmt.Errorf("plan: unknown table alias %q (DML references %q only)", c.Table, wb.table)
	}
	ci := wb.schema.ColumnIndex(c.Column)
	if ci < 0 {
		return 0, fmt.Errorf("plan: table %q has no column %q", wb.table, c.Column)
	}
	return ci, nil
}

// where lowers the statement's WHERE conjunction into filters over the
// base table: each predicate compares one column against a constant or a
// placeholder (DML never joins).
func (wb *writeBuilder) where(preds []sql.Predicate) ([]Filter, error) {
	var out []Filter
	for i := range preds {
		p := &preds[i]
		col, op, operand := p.Left, p.Op, p.Right
		if _, ok := col.(*sql.ColRef); !ok {
			col, op, operand = p.Right, p.Op.Flip(), p.Left
		}
		cref, ok := col.(*sql.ColRef)
		if !ok || !isConstOperand(operand) {
			return nil, fmt.Errorf("plan: DML predicates compare a column against a constant, found %s", p)
		}
		ci, err := wb.column(cref)
		if err != nil {
			return nil, err
		}
		wv, err := wb.value(operand, ci, false)
		if err != nil {
			return nil, err
		}
		out = append(out, Filter{Col: ci, Op: op, Val: wv.Val, Param: wv.Param})
	}
	return out, nil
}

// finish validates that every placeholder landed in a supported position.
func (wb *writeBuilder) finish(w *WritePlan) (*WritePlan, error) {
	for i, seen := range wb.paramsSeen {
		if !seen {
			return nil, fmt.Errorf("plan: parameter %d is not a value or comparison operand", i+1)
		}
	}
	w.Params = wb.params
	return w, nil
}

func buildInsert(s *sql.InsertStmt, cat *catalog.Catalog) (*WritePlan, error) {
	e, err := cat.Lookup(s.Table)
	if err != nil {
		return nil, err
	}
	schema := e.Table.Schema()
	n := schema.NumColumns()

	// Resolve the target column order. The engine has no NULLs, so a row
	// must supply every column; an explicit list may only permute them.
	order := make([]int, 0, n)
	if len(s.Columns) == 0 {
		for i := 0; i < n; i++ {
			order = append(order, i)
		}
	} else {
		if len(s.Columns) != n {
			return nil, fmt.Errorf("plan: INSERT into %q must supply all %d columns, got %d (the engine has no NULLs)", s.Table, n, len(s.Columns))
		}
		seen := make([]bool, n)
		for _, name := range s.Columns {
			ci := schema.ColumnIndex(name)
			if ci < 0 {
				return nil, fmt.Errorf("plan: table %q has no column %q", s.Table, name)
			}
			if seen[ci] {
				return nil, fmt.Errorf("plan: duplicate INSERT column %q", name)
			}
			seen[ci] = true
			order = append(order, ci)
		}
	}

	wb := newWriteBuilder(s.Table, schema, s.NumParams)
	rows := make([][]WriteValue, len(s.Rows))
	for ri, row := range s.Rows {
		if len(row) != len(order) {
			return nil, fmt.Errorf("plan: INSERT row %d has %d values for %d columns", ri+1, len(row), len(order))
		}
		out := make([]WriteValue, n)
		for k, expr := range row {
			ci := order[k]
			wv, err := wb.value(expr, ci, true)
			if err != nil {
				return nil, fmt.Errorf("plan: INSERT row %d, column %q: %w", ri+1, schema.Column(ci).Name, err)
			}
			out[ci] = wv
		}
		rows[ri] = out
	}
	return wb.finish(&WritePlan{Kind: WriteInsert, Table: s.Table, Entry: e, Schema: schema, Rows: rows})
}

func buildDelete(s *sql.DeleteStmt, cat *catalog.Catalog) (*WritePlan, error) {
	e, err := cat.Lookup(s.Table)
	if err != nil {
		return nil, err
	}
	schema := e.Table.Schema()
	wb := newWriteBuilder(s.Table, schema, s.NumParams)
	filters, err := wb.where(s.Where)
	if err != nil {
		return nil, err
	}
	return wb.finish(&WritePlan{Kind: WriteDelete, Table: s.Table, Entry: e, Schema: schema, Filters: filters})
}

func buildUpdate(s *sql.UpdateStmt, cat *catalog.Catalog) (*WritePlan, error) {
	e, err := cat.Lookup(s.Table)
	if err != nil {
		return nil, err
	}
	schema := e.Table.Schema()
	wb := newWriteBuilder(s.Table, schema, s.NumParams)
	sets := make([]SetColumn, 0, len(s.Set))
	assigned := make(map[int]bool, len(s.Set))
	for i := range s.Set {
		ci := schema.ColumnIndex(s.Set[i].Column)
		if ci < 0 {
			return nil, fmt.Errorf("plan: table %q has no column %q", s.Table, s.Set[i].Column)
		}
		if assigned[ci] {
			return nil, fmt.Errorf("plan: duplicate UPDATE target %q", s.Set[i].Column)
		}
		assigned[ci] = true
		wv, err := wb.value(s.Set[i].Value, ci, true)
		if err != nil {
			return nil, fmt.Errorf("plan: UPDATE %s: %w", s.Set[i].Column, err)
		}
		sets = append(sets, SetColumn{Col: ci, Val: wv})
	}
	filters, err := wb.where(s.Where)
	if err != nil {
		return nil, err
	}
	return wb.finish(&WritePlan{Kind: WriteUpdate, Table: s.Table, Entry: e, Schema: schema, Filters: filters, Sets: sets})
}

// checkParamArgs validates a bind vector against parameter slots: exact
// arity and, per slot, the kind the target column expects. Shared by read
// plans (Plan.CheckArgs) and write plans.
func checkParamArgs(slots []ParamSlot, args []types.Datum) error {
	if len(args) != len(slots) {
		return fmt.Errorf("plan: statement wants %d parameters, got %d", len(slots), len(args))
	}
	for i := range args {
		if args[i].Kind != slots[i].Kind {
			return fmt.Errorf("plan: parameter %d: %v value bound to %v column %s",
				i+1, args[i].Kind, slots[i].Kind, slots[i].Column)
		}
	}
	return nil
}

// Bind resolves every parameter slot against an already-coerced bind
// vector, returning an execution-ready plan in which every WriteValue and
// Filter carries its concrete datum. The receiver is never modified —
// cached write plans are shared across concurrent executions — so Bind
// copies exactly the descriptors that hold parameters.
func (w *WritePlan) Bind(args []types.Datum) (*WritePlan, error) {
	if err := checkParamArgs(w.Params, args); err != nil {
		return nil, err
	}
	if len(w.Params) == 0 {
		return w, nil
	}
	q := *w
	q.Params = nil // the copy is fully bound; Bind on it again is an arity error

	if rowsHaveParams(w.Rows) {
		rows := make([][]WriteValue, len(w.Rows))
		for i, row := range w.Rows {
			out := make([]WriteValue, len(row))
			copy(out, row)
			for k := range out {
				if slot, ok := out[k].Slot(); ok {
					out[k] = WriteValue{Val: args[slot]}
				}
			}
			rows[i] = out
		}
		q.Rows = rows
	}
	if filtersHaveParams(w.Filters) {
		fs := make([]Filter, len(w.Filters))
		copy(fs, w.Filters)
		for i := range fs {
			if slot, ok := fs[i].Slot(); ok {
				fs[i].Val = args[slot]
				fs[i].Param = 0
			}
		}
		q.Filters = fs
	}
	if setsHaveParams(w.Sets) {
		sets := make([]SetColumn, len(w.Sets))
		copy(sets, w.Sets)
		for i := range sets {
			if slot, ok := sets[i].Val.Slot(); ok {
				sets[i].Val = WriteValue{Val: args[slot]}
			}
		}
		q.Sets = sets
	}
	return &q, nil
}

func rowsHaveParams(rows [][]WriteValue) bool {
	for _, row := range rows {
		for i := range row {
			if _, ok := row[i].Slot(); ok {
				return true
			}
		}
	}
	return false
}

func filtersHaveParams(fs []Filter) bool {
	for i := range fs {
		if _, ok := fs[i].Slot(); ok {
			return true
		}
	}
	return false
}

func setsHaveParams(sets []SetColumn) bool {
	for i := range sets {
		if _, ok := sets[i].Val.Slot(); ok {
			return true
		}
	}
	return false
}
