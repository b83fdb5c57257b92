// Package plan implements HIQUE's query optimizer (paper §IV): it binds a
// parsed statement against the catalogue, classifies predicates into
// selections and equi-joins, orders joins greedily to minimise intermediate
// result size, detects join teams and interesting orders (including
// physical index order on unique join keys), selects the evaluation
// algorithm for every operator, and emits the topologically sorted list of
// operator descriptors that the code generator instantiates (the input of
// Figure 3). DML statements lower to the flat WritePlan descriptor
// (write.go) instead of the operator list.
//
// Callers: hique.DB plans under the referenced tables' reader locks (the
// statistics a plan bakes in must match the data the locks pin); every
// engine — core, volcano, dsm, and the codegen pipelines — consumes the
// same descriptors. The Fusion-eligibility methods (Join.FusionEligible,
// Agg.FusionEligible) tell the generator which shapes its fused pipelines
// may claim.
//
// Ownership: a built Plan is immutable once cached — parameter slots
// (ParamSlot, the Filter/IndexScanSpec Param encoding) are resolved by
// Bind into a copy, never in place. The fused pipelines skip Bind
// entirely and read the bind vector at execution time; the interpreted
// engines bind a copy per execution.
package plan

import (
	"fmt"

	"hique/internal/sql"
	"hique/internal/types"
)

// Expr is a bound scalar expression over a known input schema. Engines
// lower these trees themselves: the generic iterator engine interprets them
// datum-at-a-time, the holistic code generator compiles them into page-
// at-a-time vector programs and source text.
type Expr interface {
	// Kind returns the expression's result type.
	Kind() types.Kind
	fmt.Stringer
}

// ColExpr reads column Col of the input tuple.
type ColExpr struct {
	Col  int
	Name string
	K    types.Kind
}

// Kind implements Expr.
func (e *ColExpr) Kind() types.Kind { return e.K }
func (e *ColExpr) String() string   { return e.Name }

// ConstExpr is a literal.
type ConstExpr struct{ D types.Datum }

// Kind implements Expr.
func (e *ConstExpr) Kind() types.Kind { return e.D.Kind }
func (e *ConstExpr) String() string   { return e.D.String() }

// ArithExpr is a binary arithmetic node. Numeric promotion: the result is
// Float when either side is Float, otherwise Int.
type ArithExpr struct {
	Op   sql.BinaryOp
	L, R Expr
}

// Kind implements Expr.
func (e *ArithExpr) Kind() types.Kind {
	if e.L.Kind() == types.Float || e.R.Kind() == types.Float || e.Op == sql.OpDiv {
		return types.Float
	}
	return types.Int
}

func (e *ArithExpr) String() string {
	return fmt.Sprintf("(%s %c %s)", e.L, e.Op, e.R)
}

// EvalInt evaluates an Int-kinded expression against a tuple.
func EvalInt(e Expr, schema *types.Schema, tuple []byte) int64 {
	switch v := e.(type) {
	case *ColExpr:
		return types.GetInt(tuple, schema.Offset(v.Col))
	case *ConstExpr:
		return v.D.I
	case *ArithExpr:
		l := EvalInt(v.L, schema, tuple)
		r := EvalInt(v.R, schema, tuple)
		switch v.Op {
		case sql.OpAdd:
			return l + r
		case sql.OpSub:
			return l - r
		case sql.OpMul:
			return l * r
		case sql.OpDiv:
			return l / r
		}
	}
	panic(fmt.Sprintf("plan.EvalInt: bad node %T", e))
}

// EvalFloat evaluates a numeric expression as float64.
func EvalFloat(e Expr, schema *types.Schema, tuple []byte) float64 {
	switch v := e.(type) {
	case *ColExpr:
		if v.K == types.Float {
			return types.GetFloat(tuple, schema.Offset(v.Col))
		}
		return float64(types.GetInt(tuple, schema.Offset(v.Col)))
	case *ConstExpr:
		if v.D.Kind == types.Float {
			return v.D.F
		}
		return float64(v.D.I)
	case *ArithExpr:
		l := EvalFloat(v.L, schema, tuple)
		r := EvalFloat(v.R, schema, tuple)
		switch v.Op {
		case sql.OpAdd:
			return l + r
		case sql.OpSub:
			return l - r
		case sql.OpMul:
			return l * r
		case sql.OpDiv:
			return l / r
		}
	}
	panic(fmt.Sprintf("plan.EvalFloat: bad node %T", e))
}

// EvalDatum evaluates any expression to a boxed datum.
func EvalDatum(e Expr, schema *types.Schema, tuple []byte) types.Datum {
	switch e.Kind() {
	case types.Int:
		return types.IntDatum(EvalInt(e, schema, tuple))
	case types.Date:
		return types.DateDatum(EvalInt(e, schema, tuple))
	case types.Float:
		return types.FloatDatum(EvalFloat(e, schema, tuple))
	case types.String:
		col, ok := e.(*ColExpr)
		if !ok {
			if c, isConst := e.(*ConstExpr); isConst {
				return c.D
			}
			panic("plan.EvalDatum: string expressions must be columns or constants")
		}
		c := schema.Column(col.Col)
		return types.StringDatum(types.GetString(tuple, schema.Offset(col.Col), c.Size))
	}
	panic("plan.EvalDatum: bad kind")
}

// ExprColumns returns the distinct input columns an expression reads.
func ExprColumns(e Expr) []int {
	seen := map[int]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case *ColExpr:
			seen[v.Col] = true
		case *ArithExpr:
			walk(v.L)
			walk(v.R)
		}
	}
	walk(e)
	out := make([]int, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	return out
}
