// Parallel phases of the fused join pipeline (see parallel.go for the
// morsel machinery). Two phases parallelise independently, each decided
// at generation time:
//
//   - Staging: a side whose input is a full scan splits into page-range
//     morsels; workers filter/project/route into private arenas and the
//     caller concatenates the per-morsel ranges in morsel order, so the
//     staged arena, partition routes, and row count are byte-identical
//     to the caller-only scan's. Everything downstream (sorts,
//     partitioning, merge order) is untouched. Index probes and ordered
//     traversals stay serial — they are already sub-linear.
//
//   - The partition-wise join loop: a morsel is a contiguous chunk of
//     partitions. Only tails that merge deterministically compile a
//     parallel loop: map aggregation (per-chunk flat accumulator arrays,
//     merged in ascending chunk order — a per-slot array add, the payoff
//     of the PR 5 value-directory layout) and plain projection (chunk
//     outputs stitched in chunk order, reproducing the caller-only
//     partition order exactly). Chunk boundaries depend only on the
//     partition count and the generation-time worker target, never on
//     claim timing or the admitted worker count, so integer aggregates
//     are exactly the caller-only values and float sums fold in one
//     fixed order run to run.
//
// Both phases run the same kernels the caller-only run does
// (stagePages, joinPartitions); what lives here is the split, the
// per-worker state hand-off, and the in-order stitch or merge.
package codegen

import (
	"hique/internal/core"
	"hique/internal/plan"
	"hique/internal/storage"
	"hique/internal/types"
)

// scanSidePar splits a side's staging scan into page-range morsels:
// workers run stagePages into private stagedSides and the caller
// concatenates the per-morsel ranges. It returns false (having staged
// nothing) when the table is too small to split, in which case the
// caller stages on its own.
func (f *fusedJoin) scanSidePar(sc *joinScratch, i int, t *storage.Table, params []types.Datum) bool {
	per, n := pageMorsels(t)
	if n < 2 {
		return false
	}
	s := &f.sides[i]
	pages := t.NumPages()
	ph := &sc.par
	ph.reset(n, s.par, -1)
	ph.run(f.p.Pool, s.par, func(wi int) {
		st := &ph.workers[wi].staged
		for {
			m, ok := ph.queue.Next()
			if !ok {
				return
			}
			mo := parMorsel{worker: int32(wi), start: len(st.arena), pstart: len(st.partIdx)}
			st.rows = 0
			s.stagePages(st, t, m*per, min((m+1)*per, pages), params)
			mo.rows, mo.end, mo.pend = st.rows, len(st.arena), len(st.partIdx)
			ph.complete(m, mo)
		}
	})
	// Concatenate in morsel order: page ranges are claimed out of order
	// but reassemble into exactly the caller-only scan order.
	dst := &sc.staged[i]
	for k := range ph.morsels {
		mo := &ph.morsels[k]
		st := &ph.workers[mo.worker].staged
		dst.arena = append(dst.arena, st.arena[mo.start:mo.end]...)
		dst.partIdx = append(dst.partIdx, st.partIdx[mo.pstart:mo.pend]...)
		dst.rows += mo.rows
	}
	if f.traced {
		ph.finish(f.p.Trace, plan.TraceJoinStage(0, i))
	} else {
		ph.finish(nil, "")
	}
	return true
}

// joinPar runs the per-partition join loop across workers. A morsel is
// a contiguous chunk of partitions; corresponding partitions on both
// sides hold disjoint key ranges (coarse) or single keys (fine), so
// chunks join independently — sorting a partition pair in place touches
// disjoint subslices of the shared reference arrays. Chunks are sized
// to ~4 per worker for claim-level load balancing. Each chunk runs
// joinPartitions with the worker's own tail state: rows go to its arena
// and are stitched into the caller's result in chunk order, map
// aggregation goes to a per-chunk accumulator merged into the caller's.
func (f *fusedJoin) joinPar(sc *joinScratch, p0, p1 [][][]byte, limit int) {
	m := len(p0)
	target := f.parJoin
	chunks := 4 * target
	if chunks > m {
		chunks = m
	}
	per := (m + chunks - 1) / chunks
	chunks = (m + per - 1) / per
	fa := f.agg // non-nil implies mapped (generation-time eligibility)
	phLimit := limit
	if fa != nil {
		phLimit = -1 // the limit bounds groups, not joined pairs
	}
	ph := &sc.par
	ph.reset(chunks, target, phLimit)
	if fa != nil {
		if cap(sc.chunkMaps) < chunks {
			sc.chunkMaps = make([]*core.Accum, chunks)
		}
		sc.chunkMaps = sc.chunkMaps[:chunks]
		for i := range sc.chunkMaps {
			sc.chunkMaps[i] = nil
		}
	}
	ph.run(f.p.Pool, target, func(wi int) {
		wk := &ph.workers[wi]
		ts := &wk.tail
		for {
			c, ok := ph.queue.Next()
			if !ok {
				return
			}
			f.prepTail(ts)
			if fa != nil {
				ts.acc = wk.popMap()
				ts.acc.Reset(fa.prog.NGroups, fa.prog.NAggs)
				sc.chunkMaps[c] = ts.acc
			}
			mo := parMorsel{worker: int32(wi), start: len(ts.arena)}
			f.joinPartitions(ts, p0, p1, c*per, min((c+1)*per, m), phLimit)
			mo.rows, mo.end = ts.pairs, len(ts.arena)
			ph.complete(c, mo)
		}
	})
	caller := &sc.tail
	for i := range ph.morsels {
		caller.pairs += ph.morsels[i].rows
	}
	if fa != nil {
		// Merge the chunk accumulators into the execution's map state in
		// ascending chunk order — a fixed fold order, whatever the claim
		// timing — then return them to their workers' freelists.
		for c, acc := range sc.chunkMaps {
			if acc == nil {
				continue
			}
			caller.acc.Merge(acc)
			wk := &ph.workers[ph.morsels[c].worker]
			wk.maps = append(wk.maps, acc)
			sc.chunkMaps[c] = nil
		}
	} else {
		ph.stitchRows(caller.out, f.outWidth, limit)
	}
	if f.traced {
		ph.finish(f.p.Trace, plan.TraceJoin(0))
	} else {
		ph.finish(nil, "")
	}
}
