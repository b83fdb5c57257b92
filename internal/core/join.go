package core

import (
	"fmt"

	"hique/internal/plan"
	"hique/internal/storage"
)

// CopyRange is one coalesced byte-range copy from a staged input tuple
// into an assembled output tuple (the inlined add_to_result of the
// paper's Listing 2).
type CopyRange struct{ SrcOff, DstOff, Size int }

// AppendCopy adds r to specs, extending the last range instead when r
// continues it on both the source and the destination side.
func AppendCopy(specs []CopyRange, r CopyRange) []CopyRange {
	if n := len(specs); n > 0 {
		last := &specs[n-1]
		if last.SrcOff+last.Size == r.SrcOff && last.DstOff+last.Size == r.DstOff {
			last.Size += r.Size
			return specs
		}
	}
	return append(specs, r)
}

// CopyInto applies specs: each range copies from src into dst.
func CopyInto(dst, src []byte, specs []CopyRange) {
	for _, c := range specs {
		copy(dst[c.DstOff:c.DstOff+c.Size], src[c.SrcOff:c.SrcOff+c.Size])
	}
}

// JoinCopies compiles the join's output mapping into per-input copy
// ranges from the staged tuples into the join tuple.
func JoinCopies(j *plan.Join) [][]CopyRange {
	specs := make([][]CopyRange, len(j.Inputs))
	for pos, o := range j.Out {
		src := j.Inputs[o.Input].Schema
		specs[o.Input] = AppendCopy(specs[o.Input],
			CopyRange{src.Offset(o.Col), j.Schema.Offset(pos), src.Column(o.Col).Size})
	}
	return specs
}

// rowBuilder assembles join output tuples from the current tuple of each
// input, with all offsets pre-resolved.
type rowBuilder struct {
	out   *storage.Table
	buf   []byte
	specs [][]CopyRange // per input
}

func newRowBuilder(j *plan.Join) *rowBuilder {
	return &rowBuilder{
		out:   storage.NewTable("joined", j.Schema),
		buf:   make([]byte, j.Schema.TupleSize()),
		specs: JoinCopies(j),
	}
}

// emit writes one output tuple built from the given per-input tuples.
func (rb *rowBuilder) emit(tuples [][]byte) {
	for i, specs := range rb.specs {
		CopyInto(rb.buf, tuples[i], specs)
	}
	rb.out.Append(rb.buf)
}

// RunJoin evaluates a join descriptor over its staged inputs and returns
// the materialised result. All variants share the nested-loops structure
// of Listing 2; they differ in how the inputs were staged and in the
// in-loop bound updates (§V-B).
func RunJoin(j *plan.Join, staged []*Staged) (*storage.Table, error) {
	if len(staged) != len(j.Inputs) {
		return nil, fmt.Errorf("core: join expects %d staged inputs, got %d", len(j.Inputs), len(staged))
	}
	rb := newRowBuilder(j)

	switch j.Alg {
	case plan.MergeJoin:
		inputs := make([][][]byte, len(staged))
		for i, s := range staged {
			if len(s.Parts) != 1 {
				return nil, fmt.Errorf("core: merge join input %d is partitioned", i)
			}
			inputs[i] = Flatten(s.Parts[0])
		}
		mergeJoinK(j, inputs, rb)
		return rb.out, nil

	case plan.FinePartitionJoin:
		m := len(staged[0].Parts)
		for i, s := range staged {
			if len(s.Parts) != m {
				return nil, fmt.Errorf("core: fine join input %d has %d partitions, want %d", i, len(s.Parts), m)
			}
		}
		// Corresponding partitions hold exactly one key value, so all
		// tuples match: a pure nested loop per partition set.
		current := make([][]byte, len(staged))
		for p := 0; p < m; p++ {
			parts := make([][][]byte, len(staged))
			empty := false
			for i, s := range staged {
				parts[i] = Flatten(s.Parts[p])
				if len(parts[i]) == 0 {
					empty = true
					break
				}
			}
			if empty {
				continue
			}
			cartesian(parts, current, 0, rb)
		}
		return rb.out, nil

	case plan.HybridJoin:
		m := len(staged[0].Parts)
		for i, s := range staged {
			if len(s.Parts) != m {
				return nil, fmt.Errorf("core: hybrid join input %d has %d partitions, want %d", i, len(s.Parts), m)
			}
		}
		// Sort corresponding partitions just before joining them so the
		// pair is L2-resident during the merge (§V-B).
		cmps := make([]Compare, len(staged))
		for i := range staged {
			cmps[i] = MakeKeyCompare(j.Inputs[i].Schema, []int{j.Keys[i]})
		}
		inputs := make([][][]byte, len(staged))
		for p := 0; p < m; p++ {
			empty := false
			for i, s := range staged {
				inputs[i] = Flatten(s.Parts[p])
				if len(inputs[i]) == 0 {
					empty = true
					break
				}
			}
			if empty {
				continue
			}
			if !staged[0].Sorted {
				for i := range inputs {
					SortTuples(inputs[i], cmps[i])
				}
			}
			mergeJoinK(j, inputs, rb)
		}
		return rb.out, nil
	}
	return nil, fmt.Errorf("core: unknown join algorithm %v", j.Alg)
}

// cartesian emits the cross product of the partition tuple sets (the fine
// partition join inner loops).
func cartesian(parts [][][]byte, current [][]byte, depth int, rb *rowBuilder) {
	if depth == len(parts) {
		rb.emit(current)
		return
	}
	for _, t := range parts[depth] {
		current[depth] = t
		cartesian(parts, current, depth+1, rb)
	}
}

// mergeJoinK is the k-way sorted merge join: all inputs are ordered on
// their key columns; the loop advances every input to the next common key,
// delimits the matching group in each input, and emits the product of the
// groups. For k == 2 this is exactly the paper's merge join with
// backtracking over inner groups; join teams use k > 2 with one loop per
// input, page loops before tuple loops (§V-B).
func mergeJoinK(j *plan.Join, inputs [][][]byte, rb *rowBuilder) {
	k := len(inputs)
	pos := make([]int, k)
	for i := 0; i < k; i++ {
		if len(inputs[i]) == 0 {
			return
		}
	}

	// crossCmp[i] compares a tuple of input i with a tuple of input 0.
	crossCmp := make([]func(a, b []byte) int, k)
	sameCmp := make([]Compare, k)
	for i := 0; i < k; i++ {
		crossCmp[i] = CrossCompare(j.Inputs[i].Schema, j.Keys[i], j.Inputs[0].Schema, j.Keys[0])
		sameCmp[i] = MakeKeyCompare(j.Inputs[i].Schema, []int{j.Keys[i]})
	}

	ends := make([]int, k)
	groups := make([][][]byte, k)
	current := make([][]byte, k)
	for {
		// Align all inputs on a common key.
		aligned := false
		for !aligned {
			aligned = true
			for i := 1; i < k; i++ {
				c := crossCmp[i](inputs[i][pos[i]], inputs[0][pos[0]])
				for c < 0 {
					pos[i]++
					if pos[i] >= len(inputs[i]) {
						return
					}
					c = crossCmp[i](inputs[i][pos[i]], inputs[0][pos[0]])
				}
				if c > 0 {
					pos[0]++
					if pos[0] >= len(inputs[0]) {
						return
					}
					aligned = false
					break
				}
			}
		}
		// Delimit the matching group in every input.
		singletons := true
		for i := 0; i < k; i++ {
			e := pos[i] + 1
			head := inputs[i][pos[i]]
			for e < len(inputs[i]) && sameCmp[i](inputs[i][e], head) == 0 {
				e++
			}
			ends[i] = e
			groups[i] = inputs[i][pos[i]:e]
			if e-pos[i] != 1 {
				singletons = false
			}
		}
		// Emit the product of the groups. Key/foreign-key teams have
		// singleton groups everywhere but the fact input: keep those
		// paths free of the recursive product.
		switch {
		case singletons:
			for i := 0; i < k; i++ {
				current[i] = inputs[i][pos[i]]
			}
			rb.emit(current)
		case k == 2:
			for _, ta := range groups[0] {
				current[0] = ta
				for _, tb := range groups[1] {
					current[1] = tb
					rb.emit(current)
				}
			}
		default:
			cartesian(groups, current, 0, rb)
		}
		for i := 0; i < k; i++ {
			pos[i] = ends[i]
			if pos[i] >= len(inputs[i]) {
				return
			}
		}
	}
}
