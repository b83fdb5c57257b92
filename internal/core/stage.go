package core

import (
	"fmt"

	"hique/internal/plan"
	"hique/internal/storage"
	"hique/internal/types"
)

// Staged is the materialised output of a data-staging step: one part for
// unpartitioned stages, M parts for partitioned ones (paper §IV step 1).
type Staged struct {
	Parts  []*storage.Table
	Schema *types.Schema
	// Sorted reports whether every part is ordered on the stage's sort
	// keys.
	Sorted bool
	// Owned reports whether the parts were materialised by this stage
	// (from the page arena) and may be released once the consuming
	// operator has drained them. Identity stages pass their input
	// through instead of copying; those parts belong to someone else.
	Owned bool
}

// Release returns owned parts to the page arena. The consuming operator
// calls it after materialising its own output; pass-through (elided)
// stages and already-released stages are no-ops.
func (s *Staged) Release() {
	if s == nil || !s.Owned {
		return
	}
	s.Owned = false
	for _, p := range s.Parts {
		p.Release()
	}
}

// Rows returns the total staged row count.
func (s *Staged) Rows() int {
	n := 0
	for _, p := range s.Parts {
		n += p.NumRows()
	}
	return n
}

// RunStage executes a staging descriptor: scan the input, apply selections,
// project away unused fields, and interleave the sort or partition
// pre-processing required by the consuming operator — all in one pass over
// the input, exactly as the generated staging function does (Listing 1
// extended with sort/partition steps).
func RunStage(st *plan.Stage, input *storage.Table) (*Staged, error) {
	inSchema := input.Schema()
	filter := MakeFilter(inSchema, st.Filters)
	project := MakeProjector(inSchema, st.Cols, st.Schema)
	width := st.Schema.TupleSize()

	switch st.Action {
	case plan.StageNone, plan.StageSort:
		// Identity elision: a stage that neither filters, partitions,
		// nor re-projects adds only a tuple-by-tuple copy — pass the
		// input through (StageNone) or sort straight off the input's
		// pages (StageSort) instead of materialising it first.
		if st.IsIdentity(inSchema) {
			if st.Action == plan.StageNone {
				return &Staged{Parts: []*storage.Table{input}, Schema: st.Schema}, nil
			}
			cmp := MakeKeyCompare(st.Schema, st.SortKeys)
			tuples := Flatten(input)
			SortTuples(tuples, cmp)
			sorted := storage.NewPooledTable("staged", st.Schema)
			for _, t := range tuples {
				sorted.Append(t)
			}
			return &Staged{Parts: []*storage.Table{sorted}, Schema: st.Schema, Sorted: true, Owned: true}, nil
		}
		out := storage.NewPooledTable("staged", st.Schema)
		input.Scan(func(tuple []byte) bool {
			if filter != nil && !filter(tuple) {
				return true
			}
			project(tuple, out.AppendSlot())
			return true
		})
		staged := &Staged{Parts: []*storage.Table{out}, Schema: st.Schema, Owned: true}
		if st.Action == plan.StageSort {
			cmp := MakeKeyCompare(st.Schema, st.SortKeys)
			staged.Parts[0] = SortTablePooled("staged", out, cmp)
			out.Release()
			staged.Sorted = true
		}
		return staged, nil

	case plan.StagePartitionFine, plan.StagePartitionCoarse:
		router, m, err := stageRouter(st)
		if err != nil {
			return nil, err
		}
		parts := make([]*storage.Table, m)
		for i := range parts {
			parts[i] = storage.NewPooledTable(fmt.Sprintf("part%d", i), st.Schema)
		}
		buf := make([]byte, width)
		input.Scan(func(tuple []byte) bool {
			if filter != nil && !filter(tuple) {
				return true
			}
			project(tuple, buf)
			if p := router(buf); p >= 0 {
				parts[p].Append(buf)
			}
			return true
		})
		staged := &Staged{Parts: parts, Schema: st.Schema, Owned: true}
		if st.SortPartitions {
			sortParts(staged, st.SortKeys)
		}
		return staged, nil
	}
	return nil, fmt.Errorf("core: unknown stage action %v", st.Action)
}

// sortParts replaces each partition with a sorted copy, returning the
// unsorted originals to the page arena.
func sortParts(s *Staged, keys []int) {
	cmp := MakeKeyCompare(s.Schema, keys)
	for i, p := range s.Parts {
		s.Parts[i] = SortTablePooled(p.Name(), p, cmp)
		p.Release()
	}
	s.Sorted = true
}

// stageRouter compiles a partitioning stage's route and partition count:
// the hash route for coarse partitions; for fine ones the probe of the
// stage's value directory, one partition per directory value. A tuple
// whose key is absent from the directory routes to -1 and is dropped: it
// cannot join with anything on the other side. The directory is empty —
// zero partitions, every tuple dropped — when the join inputs' key
// domains are disjoint; it is nil only when the planner chose fine
// partitioning over a key domain the catalogue never tracked.
func stageRouter(st *plan.Stage) (func(tuple []byte) int32, int, error) {
	if st.Action == plan.StagePartitionCoarse {
		if st.Partitions <= 0 {
			return nil, 0, fmt.Errorf("core: coarse partitioning with %d partitions", st.Partitions)
		}
		return CoarseRouter(st.Schema, st.PartitionKey, st.Partitions), st.Partitions, nil
	}
	if st.FineValues == nil {
		return nil, 0, fmt.Errorf("core: fine partitioning without a value directory")
	}
	col := st.Schema.Column(st.PartitionKey)
	router := DirProbe(col.Kind, st.Schema.Offset(st.PartitionKey), col.Size, st.FineValues)
	if router == nil {
		return nil, 0, fmt.Errorf("core: fine partitioning on %v column", col.Kind)
	}
	return router, len(st.FineValues), nil
}

// CoarseRouter maps a tuple to one of m partitions by hash-and-modulo
// (§V-B, coarse-grained partitioning). m must be a power of two. A
// group-less aggregate stages an empty tuple with no partitioning key;
// it, and a single partition, route everything to partition 0 without
// hashing.
func CoarseRouter(schema *types.Schema, key, m int) func(tuple []byte) int32 {
	if key >= schema.NumColumns() || m <= 1 {
		return func([]byte) int32 { return 0 }
	}
	col := schema.Column(key)
	off := schema.Offset(key)
	mask := uint64(m - 1)
	if col.Kind == types.String {
		end := off + col.Size
		return func(t []byte) int32 { return int32(HashBytes(t[off:end]) & mask) }
	}
	// Int, Date, and Float (raw bits; equal floats have equal bits).
	return func(t []byte) int32 { return int32(HashInt(types.GetInt(t, off)) & mask) }
}

// HashInt is a Fibonacci multiplicative hash over a 64-bit key.
func HashInt(v int64) uint64 {
	x := uint64(v) * 0x9E3779B97F4A7C15
	return x ^ (x >> 29)
}

// HashBytes is FNV-1a over the key bytes.
func HashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
