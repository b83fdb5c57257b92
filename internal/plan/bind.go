package plan

import "hique/internal/types"

// CheckArgs validates a bind vector against the plan's parameter slots:
// exact arity and, per slot, the kind the compared column expects.
// Arguments must already be coerced (Bind performs no conversion).
func (p *Plan) CheckArgs(args []types.Datum) error {
	return checkParamArgs(p.Params, args)
}

// Bind resolves every parameter slot of a parameterized plan against a
// bind vector, returning an execution-ready plan in which each Filter and
// IndexScanSpec carries its concrete comparison value. The receiver is
// never modified — the plan cache shares one parameterized plan across
// concurrent executions, and each execution binds its own copy — so Bind
// copies exactly the descriptors that hold parameters and shares
// everything else (schemas, value directories, statistics).
//
// Arguments must already be coerced to the slot kinds in Params; Bind
// validates arity and kind but performs no conversion.
func (p *Plan) Bind(args []types.Datum) (*Plan, error) {
	if err := p.CheckArgs(args); err != nil {
		return nil, err
	}
	if len(p.Params) == 0 {
		return p, nil
	}

	q := new(Plan)
	*q = *p
	q.Params = nil // the copy is fully bound; Bind on it again is an arity error

	if len(p.Joins) > 0 {
		joins := make([]Join, len(p.Joins))
		q.Joins = make([]*Join, len(p.Joins))
		for i, j := range p.Joins {
			joins[i] = *j
			joins[i].Inputs = make([]Stage, len(j.Inputs))
			for k := range j.Inputs {
				joins[i].Inputs[k] = bindStage(&j.Inputs[k], args)
			}
			q.Joins[i] = &joins[i]
		}
	}
	if p.Agg != nil {
		na := new(Agg)
		*na = *p.Agg
		na.Input = bindStage(&p.Agg.Input, args)
		q.Agg = na
	}
	if p.Final != nil {
		nf := bindStage(p.Final, args)
		q.Final = &nf
	}
	return q, nil
}

// bindStage returns a copy of the stage with parameter slots substituted.
// Stages without parameters are copied by value but share their slices.
func bindStage(st *Stage, args []types.Datum) Stage {
	out := *st
	hasParam := false
	for i := range st.Filters {
		if _, ok := st.Filters[i].Slot(); ok {
			hasParam = true
			break
		}
	}
	if hasParam {
		fs := append([]Filter(nil), st.Filters...)
		for i := range fs {
			if slot, ok := fs[i].Slot(); ok {
				fs[i].Val = args[slot]
				fs[i].Param = 0
			}
		}
		out.Filters = fs
	}
	if st.IndexScan != nil {
		if slot, ok := st.IndexScan.Slot(); ok {
			spec := new(IndexScanSpec)
			*spec = *st.IndexScan
			spec.Value = args[slot]
			spec.Param = 0
			out.IndexScan = spec
		}
	}
	return out
}
