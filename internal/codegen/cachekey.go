package codegen

import (
	"strconv"

	"hique/internal/plan"
)

// AppendCacheKey renders the plan-cache key for a query shape into dst
// and returns the extended slice (the warm serving path passes a pooled
// scratch, so a hit computes its key without allocating): the normalised
// shape's token stream, its bind arity, and every other input that
// shapes the compiled artefact — the optimisation level and the
// optimizer options. Catalog state (schemata, statistics, indexes) is
// deliberately NOT part of the key; the cache validates entries against
// the catalogue's version counter instead, so a schema or statistics
// change invalidates every affected plan at once.
//
// The normalised segment is length-prefixed, which makes the key
// injective: without the prefix, a string literal containing "\x00level="
// could forge the key of a different query + options combination.
//
// The shape comes out of the same lexer pass (sql.ShapeBuf), so the key
// costs no parsing, planning, generation, or compilation — which is
// exactly what a cache hit is allowed to spend.
func AppendCacheKey(dst []byte, norm []byte, arity int, opts plan.Options, level OptLevel) []byte {
	dst = strconv.AppendInt(dst, int64(len(norm)), 10)
	dst = append(dst, ':')
	dst = append(dst, norm...)
	dst = append(dst, "\x00argc="...)
	dst = strconv.AppendInt(dst, int64(arity), 10)
	dst = append(dst, "\x00level="...)
	dst = append(dst, level.String()...)
	dst = append(dst, "\x00teams="...)
	dst = strconv.AppendBool(dst, opts.EnableJoinTeams)
	dst = append(dst, "\x00l2="...)
	dst = strconv.AppendInt(dst, int64(opts.L2CacheBytes), 10)
	dst = append(dst, "\x00finepart="...)
	dst = strconv.AppendInt(dst, int64(opts.FinePartitionMaxValues), 10)
	dst = append(dst, "\x00par="...)
	dst = strconv.AppendInt(dst, int64(opts.Parallelism), 10)
	if opts.ForceJoinAlg != nil {
		dst = append(dst, "\x00joinalg="...)
		dst = strconv.AppendInt(dst, int64(*opts.ForceJoinAlg), 10)
	}
	if opts.ForceAggAlg != nil {
		dst = append(dst, "\x00aggalg="...)
		dst = strconv.AppendInt(dst, int64(*opts.ForceAggAlg), 10)
	}
	return dst
}
