// Chained-join fused pipelines: N-way left-deep plans (TPC-H Q3's
// customer⋈orders⋈lineitem, Q10's four-way chain) extend the two-table
// fused pipeline of fused_join.go. The prefix joins run as the general
// walk's own operators (core.RunJoins), so every intermediate is the
// table that walk materialises, and the *final* join plus the whole
// aggregation, HAVING, ORDER BY and LIMIT tail compiles into the single
// fused probe→join→aggregate→emit loop, with the pipeline's left side
// staged from the last intermediate instead of a base table. Both halves
// run core's staging, bucketing and join-loop kernels; what the fused
// half removes is the materialisation of the final join and its tail.
//
// A parameterized chain binds once per run: the prefix reads the pooled
// bound copy of the plan (runBound), the final pipeline the bind vector.
// Shapes outside the chain decline gracefully (return nil) and take the
// general walk: join teams (one join descriptor with more than two
// inputs), bushy trees, and any final join or tail the two-table pipeline
// itself cannot claim.

package codegen

import (
	"hique/internal/core"
	"hique/internal/plan"
	"hique/internal/storage"
	"hique/internal/types"
)

// fusedChain is the compiled N-way pipeline: core-run prefix joins
// feeding one fused final join + tail.
type fusedChain struct {
	p     *plan.Plan
	final *fusedJoin
}

// newFusedChain compiles the chained pipeline, or returns nil when the
// plan's shape needs the general operator walk.
func newFusedChain(p *plan.Plan) *fusedChain {
	k := len(p.Joins)
	if k < 2 {
		return nil
	}
	// Left-deep chain: join 0 reads two base tables; join i>0 reads join
	// i-1 on exactly one side and a base table on the other.
	for i := range p.Joins {
		j := p.Joins[i]
		if len(j.Inputs) != 2 || len(j.Keys) != 2 {
			return nil
		}
		chainFed := 0
		for s := range j.Inputs {
			in := j.Inputs[s].Input
			if in.Base >= 0 {
				continue
			}
			if in.Join != i-1 {
				return nil
			}
			chainFed++
		}
		if (i == 0 && chainFed != 0) || (i > 0 && chainFed != 1) {
			return nil
		}
	}
	// The tail must consume the last join.
	switch {
	case p.Agg != nil:
		if p.Agg.Input.Input.Join != k-1 {
			return nil
		}
	case p.Final != nil:
		if p.Final.Input.Join != k-1 {
			return nil
		}
	default:
		return nil
	}
	f := compileFusedJoin(p, k-1)
	if f == nil {
		return nil
	}
	return &fusedChain{p: p, final: f}
}

// run executes the chain: the prefix joins through core's staged
// operators over the bound plan, then the fused final pipeline over the
// last intermediate. The caller owns the returned table and releases it
// after draining; the prefix intermediates are plain (GC-managed) tables,
// exactly as core's walk materialises them.
func (c *fusedChain) run(params []types.Datum) (*storage.Table, error) {
	return runBound(c.p, params, func(bp *plan.Plan) (*storage.Table, error) {
		if bp.Limit == 0 {
			return storage.NewPooledTable("result", c.final.outSchema), nil
		}
		prefix, err := core.RunJoins(bp, len(bp.Joins)-1)
		if err != nil {
			return nil, err
		}
		return c.final.runWith(params, prefix[len(prefix)-1])
	})
}
