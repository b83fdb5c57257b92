package core

import (
	"sync/atomic"

	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/types"
)

// Page pruning: a page loop asks PageMayMatch before it reads a page, and
// skips the page when one predicate on an Int/Date column excludes the
// page's whole [min, max] (storage.Table.PageBounds). Every page loop of
// the engine prunes this way — the fused scan, staging, the map fold, and
// the DML victim search — through the one helper.

// Pages tallies what a page loop did: the pages it read and the tuples on
// them, the pages their bounds let it skip, and the tuples a join-key
// filter dropped (StagePages).
type Pages struct{ Read, Rows, Skipped, Dropped int }

// Add accumulates q into p.
func (p *Pages) Add(q Pages) {
	p.Read += q.Read
	p.Rows += q.Rows
	p.Skipped += q.Skipped
	p.Dropped += q.Dropped
}

// Pruner returns the predicates of preds that a page's bounds can judge,
// those on Int/Date columns, or nil when there are none.
func Pruner(preds []Pred) []Pred {
	var out []Pred
	for _, pr := range preds {
		if pr.Bound < 0 {
			continue
		}
		if out == nil {
			out = make([]Pred, 0, len(preds))
		}
		out = append(out, pr)
	}
	return out
}

// PageMayMatch reports whether page pi of t may hold a tuple the
// conjunction prune (a Pruner result) accepts under the bind vector. It
// answers false only when the page's bounds exclude some predicate; a page
// without bounds may always match.
func PageMayMatch(prune []Pred, t *storage.Table, pi int, params []types.Datum) bool {
	b := t.PageBounds(pi)
	if b == nil {
		return true
	}
	for i := range prune {
		pr := &prune[i]
		v := pr.I
		if pr.Slot >= 0 {
			v = params[pr.Slot].I
		}
		if !rangeMayHold(b[2*pr.Bound], b[2*pr.Bound+1], v, pr.Op) {
			return false
		}
	}
	return true
}

// rangeMayHold reports whether some x in [lo, hi] satisfies x op v.
func rangeMayHold(lo, hi, v int64, op sql.CmpOp) bool {
	switch op {
	case sql.CmpEq:
		return lo <= v && v <= hi
	case sql.CmpNe:
		return lo != v || hi != v
	case sql.CmpLt:
		return lo < v
	case sql.CmpLe:
		return lo <= v
	case sql.CmpGt:
		return hi > v
	default:
		return hi >= v
	}
}

// FewCandidates reports whether the pages of t that prune does not exclude
// hold fewer than rows tuples: a scan compiled parallel then runs on the
// caller alone, since its morsels would be almost all skipped pages. It
// depends on the data and the bind vector only, never on the worker count.
func FewCandidates(prune []Pred, t *storage.Table, params []types.Datum, rows int) bool {
	if len(prune) == 0 {
		return false
	}
	n := 0
	for pi := 0; pi < t.NumPages(); pi++ {
		if PageMayMatch(prune, t, pi, params) {
			if n += t.Page(pi).NumTuples(); n >= rows {
				return false
			}
		}
	}
	return true
}

// skippedPages counts the pages page loops skipped on their bounds,
// re-exported as hique_scan_pages_skipped_total, and droppedKeys the
// tuples join-key filters dropped from staging scans, re-exported as
// hique_join_keys_dropped_total. Like the morsel counters they are
// process-wide: the loops run inside compiled artefacts that may outlive
// any one DB handle.
var skippedPages, droppedKeys atomic.Int64

// CountSkipped records the pages one scan skipped; call it once per scan.
func CountSkipped(pages int) {
	if pages > 0 {
		skippedPages.Add(int64(pages))
	}
}

// CountDropped records the tuples one staging scan's join-key filter
// dropped; call it once per stage.
func CountDropped(tuples int) {
	if tuples > 0 {
		droppedKeys.Add(int64(tuples))
	}
}

// SkippedPages returns the process-wide count of skipped pages.
func SkippedPages() int64 { return skippedPages.Load() }

// DroppedKeys returns the process-wide count of tuples join-key filters
// dropped.
func DroppedKeys() int64 { return droppedKeys.Load() }
