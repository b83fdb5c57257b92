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
//     traversals stay serial — they are already sub-linear. The same
//     phase stages a single-table collect-mode aggregation's input
//     (fused.go).
//
//   - The partition-wise join loop of every fine or hybrid join: a
//     morsel is a contiguous chunk of partitions. Every tail but the
//     streaming aggregation merges deterministically: map aggregation
//     (per-chunk flat accumulator arrays, merged in ascending chunk order
//     — a per-slot array add, the payoff of the value-directory layout),
//     plain projection and the stage tail (chunk outputs stitched or
//     concatenated in chunk order, reproducing the caller-only partition
//     order exactly — so a chain's intermediate, a collect-mode
//     aggregation's input and the result alike). Chunk boundaries depend
//     only on the partition count and the generation-time worker target,
//     never on claim timing or the admitted worker count, so integer
//     aggregates are exactly the caller-only values and float sums fold
//     in one fixed order run to run.
//
// Both phases run the same kernels the caller-only run does (core's
// StagePages and JoinLoop); what lives here is the split, the per-worker
// state hand-off, and the in-order stitch or merge.
package codegen

import (
	"slices"

	"hique/internal/core"
	"hique/internal/morsel"
	"hique/internal/storage"
	"hique/internal/types"
)

// stageScan splits a staging scan of t into page-range morsels: up to
// workers workers run s.StagePages into private arenas, all through the
// join-key filter kf (nil: none), which they only read, and the caller
// concatenates the per-morsel ranges into dst. It returns false (having
// staged nothing) when the table, or what its page bounds leave of it
// (core.FewCandidates), is too small to split, in which case the caller
// stages on its own; after true the caller owes ph.finish, and ph.pages
// tallies what the scan read.
func (ph *parPhase) stageScan(s *core.Stager, workers int, dst *core.Arena, pool *morsel.Pool, t *storage.Table, params []types.Datum, kf *core.KeyFilter) bool {
	per, n := pageMorsels(t, morsel.Rows)
	if n < 2 || core.FewCandidates(s.Prune, t, params, morsel.Rows) {
		return false
	}
	pages := t.NumPages()
	ph.reset(n, workers, -1)
	ph.run(pool, workers, func(wi int) {
		a := &ph.workers[wi].tail.staged
		for {
			m, ok := ph.queue.Next()
			if !ok {
				return
			}
			mo := parMorsel{worker: int32(wi), rows: a.Rows, start: len(a.Data), pstart: len(a.PartIdx)}
			mo.pages = s.StagePages(a, t, m*per, min((m+1)*per, pages), params, kf)
			mo.rows, mo.end, mo.pend = a.Rows-mo.rows, len(a.Data), len(a.PartIdx)
			ph.complete(m, mo)
		}
	})
	ph.concat(dst)
	return true
}

// concat appends the workers' staged morsel ranges — tuples and their
// partition routes — to dst in morsel order: ranges are claimed out of
// order but reassemble into exactly the caller-only loop's staging
// order, whether a staging scan or a join phase's stage tail produced
// them.
func (ph *parPhase) concat(dst *core.Arena) {
	total := 0
	for k := range ph.morsels {
		total += ph.morsels[k].end - ph.morsels[k].start
	}
	dst.Data = slices.Grow(dst.Data, total)
	for k := range ph.morsels {
		mo := &ph.morsels[k]
		a := &ph.workers[mo.worker].tail.staged
		dst.Data = append(dst.Data, a.Data[mo.start:mo.end]...)
		dst.PartIdx = append(dst.PartIdx, a.PartIdx[mo.pstart:mo.pend]...)
	}
	for i := range ph.workers {
		dst.Rows += ph.workers[i].tail.staged.Rows
	}
}

// joinPar runs the per-partition join loop over the bucketed sides'
// partitions across workers. A morsel is a contiguous chunk of
// partitions; corresponding partitions of every side hold disjoint key
// ranges (coarse) or single keys (fine), so chunks join independently —
// sorting a partition set in place touches disjoint subslices of the
// shared reference arrays. Chunks
// are sized to ~4 per worker for claim-level load balancing. Each chunk
// runs the join loop with the worker's own tail state: rows and staged
// tuples go to its arenas and are stitched into the caller's result or
// stage-tail arena in chunk order, map aggregation goes to a per-chunk
// accumulator merged into the caller's.
func (f *fusedJoin) joinPar(sc *joinScratch, parts [][][][]byte) {
	target, m := f.parJoin, len(parts[0])
	chunks := min(4*target, m)
	per := (m + chunks - 1) / chunks
	chunks = (m + per - 1) / per
	staged := f.stage != nil
	mapped := !staged && f.agg != nil // generation-time eligibility: not streaming
	phLimit := f.limit
	if f.agg != nil {
		phLimit = -1 // the limit bounds groups, not joined pairs
	}
	ph := &sc.par
	ph.reset(chunks, target, phLimit)
	if mapped {
		sc.resetChunkMaps(chunks)
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
			if mapped {
				ts.acc = sc.chunkMap(wk, c, f.agg.prog)
			}
			mo := parMorsel{worker: int32(wi), start: ts.end(staged), pstart: len(ts.staged.PartIdx)}
			f.join(ts, parts, c*per, min((c+1)*per, m))
			mo.rows, mo.end, mo.pend = ts.pairs, ts.end(staged), len(ts.staged.PartIdx)
			ph.complete(c, mo)
		}
	})
	caller := &sc.tail
	for i := range ph.morsels {
		caller.pairs += ph.morsels[i].rows
	}
	switch {
	case staged:
		ph.concat(&caller.staged)
	case mapped:
		sc.mergeChunkMaps()
	default:
		ph.stitchRows(caller.out, f.outWidth, f.limit)
	}
	ph.finish(f.p.Trace, f.name)
}

// end is the length of the arena a join chunk writes to: the stage
// tail's, or the row arena of the final projection.
func (ts *tailState) end(staged bool) int {
	if staged {
		return len(ts.staged.Data)
	}
	return len(ts.arena)
}

// resetChunkMaps sizes the per-chunk accumulator table of a phase whose
// chunks each fold into a private map-aggregation state.
func (sc *joinScratch) resetChunkMaps(chunks int) {
	sc.chunkMaps = slices.Grow(sc.chunkMaps[:0], chunks)[:chunks]
	clear(sc.chunkMaps)
}

// chunkMap draws chunk c's accumulator from worker wk's freelist, reset
// for prog, and records it for the merge.
func (sc *joinScratch) chunkMap(wk *parWorker, c int, prog *core.AggProgram) *core.Accum {
	acc := wk.popMap()
	acc.Reset(prog.NGroups, prog.NAggs)
	sc.chunkMaps[c] = acc
	return acc
}

// mergeChunkMaps folds the chunk accumulators into the execution's map
// state in ascending chunk order — a fixed fold order, whatever the claim
// timing or the worker count — then returns them to their workers'
// freelists.
func (sc *joinScratch) mergeChunkMaps() {
	for c, acc := range sc.chunkMaps {
		if acc == nil {
			continue
		}
		sc.tail.acc.Merge(acc)
		wk := &sc.par.workers[sc.par.morsels[c].worker]
		wk.maps = append(wk.maps, acc)
		sc.chunkMaps[c] = nil
	}
}
