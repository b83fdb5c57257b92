package hique

import (
	"fmt"
	"math"

	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/types"
)

// BindError reports a problem binding parameter values to a statement:
// wrong argument count, or a value that cannot be coerced to the type of
// the column it compares against. The HTTP server maps it to a 400, since
// the statement itself may be fine and only the supplied values are not.
type BindError struct{ msg string }

func (e *BindError) Error() string { return "hique: " + e.msg }

func bindErrorf(format string, args ...any) error {
	return &BindError{msg: fmt.Sprintf(format, args...)}
}

// bindValuesInto builds the execution bind vector for a plan into dst
// (extending it in place, so a pooled scratch serves repeated calls):
// the merged stream of auto-lifted literals (non-placeholder entries of
// lits, produced by sql.ShapeBuf) and caller-supplied arguments (one per
// placeholder entry, and all slots when auto is false), each coerced to
// the kind of the column its slot compares against.
func bindValuesInto(dst []types.Datum, slots []plan.ParamSlot, lits []sql.LiftedLit, auto bool, args []any) ([]types.Datum, error) {
	if auto && len(lits) != len(slots) {
		// Every placeholder the shape carries must have planned into a
		// slot; Build guarantees this, so a mismatch is an internal bug.
		return dst, fmt.Errorf("hique: shape has %d placeholders but plan has %d slots", len(lits), len(slots))
	}
	explicit := len(slots)
	if auto {
		explicit = 0
		for _, l := range lits {
			if l.Kind == sql.LitNone {
				explicit++
			}
		}
	}
	if len(args) != explicit {
		return dst, bindErrorf("statement wants %d parameters, got %d", explicit, len(args))
	}
	if len(slots) == 0 {
		return dst, nil
	}
	next := 0
	for i := range slots {
		if auto && lits[i].Kind != sql.LitNone {
			d, ok := liftedDatum(lits[i], slots[i].Kind)
			if !ok {
				// A lifted literal that cannot coerce is a statement
				// problem, not a caller-value problem: report it as a
				// plain (plan-class) error, not a *BindError.
				return dst, fmt.Errorf("hique: parameter %d (%s): plan: literal %s incompatible with %v column",
					i+1, slots[i].Column, lits[i].Expr(), slots[i].Kind)
			}
			dst = append(dst, d)
			continue
		}
		d, err := coerceParam(args[next], slots[i])
		if err != nil {
			return dst, bindErrorf("parameter %d (%s): %v", i+1, slots[i].Column, err)
		}
		dst = append(dst, d)
		next++
	}
	return dst, nil
}

// liftedDatum coerces a lifted literal to the compared column's kind,
// mirroring plan.LiteralDatum's rules without materialising an AST node.
func liftedDatum(l sql.LiftedLit, kind types.Kind) (types.Datum, bool) {
	switch l.Kind {
	case sql.LitInt:
		switch kind {
		case types.Int, types.Date:
			return types.Datum{Kind: kind, I: l.I}, true
		case types.Float:
			return types.FloatDatum(float64(l.I)), true
		}
	case sql.LitFloat:
		if kind == types.Float {
			return types.FloatDatum(l.F), true
		}
	case sql.LitDate:
		switch kind {
		case types.Date, types.Int:
			return types.Datum{Kind: kind, I: l.I}, true
		}
	case sql.LitString:
		if kind == types.String {
			return types.StringDatum(l.S), true
		}
	}
	return types.Datum{}, false
}

// coerceParam converts a caller-supplied value to a datum of the slot's
// column kind, enforcing CHAR(n) capacity when the slot carries a width
// (write-path slots do; read-path comparisons never truncate).
func coerceParam(v any, slot plan.ParamSlot) (types.Datum, error) {
	d, err := coerceValue(v, slot.Kind)
	if err != nil {
		return types.Datum{}, err
	}
	if d.Kind == types.String && slot.Size > 0 && len(d.S) > slot.Size {
		return types.Datum{}, fmt.Errorf("string %q (%d bytes) exceeds CHAR(%d)", d.S, len(d.S), slot.Size)
	}
	return d, nil
}

// coerceValue converts a caller-supplied Go value to a datum of the given
// column kind. Integral float64 values convert to Int/Date columns (JSON
// has only one number type), date strings parse as YYYY-MM-DD, and Int
// values widen to Float — the same conversions a literal in the statement
// text would get. It is the single coercion rule for every value entering
// the engine from Go: query bind parameters, DML bind parameters, and the
// Go-API Insert all route through it, so the write side accepts exactly
// what the read side would match.
func coerceValue(v any, kind types.Kind) (types.Datum, error) {
	if d, ok := v.(types.Datum); ok {
		if d.Kind != kind {
			return types.Datum{}, fmt.Errorf("datum kind %v incompatible with %v column", d.Kind, kind)
		}
		return d, nil
	}
	switch kind {
	case types.Int, types.Date:
		switch x := v.(type) {
		case int64:
			return types.Datum{Kind: kind, I: x}, nil
		case int:
			return types.Datum{Kind: kind, I: int64(x)}, nil
		case float64:
			if x != math.Trunc(x) || x < math.MinInt64 || x >= math.MaxInt64 {
				return types.Datum{}, fmt.Errorf("value %v is not an integer", x)
			}
			return types.Datum{Kind: kind, I: int64(x)}, nil
		case string:
			if kind == types.Date {
				days, err := sql.ParseDate(x)
				if err != nil {
					return types.Datum{}, err
				}
				return types.Datum{Kind: types.Date, I: days}, nil
			}
		}
	case types.Float:
		switch x := v.(type) {
		case float64:
			return types.FloatDatum(x), nil
		case int64:
			return types.FloatDatum(float64(x)), nil
		case int:
			return types.FloatDatum(float64(x)), nil
		}
	case types.String:
		if x, ok := v.(string); ok {
			return types.StringDatum(x), nil
		}
	}
	return types.Datum{}, fmt.Errorf("cannot use %v (%T) as %v", v, v, kind)
}
