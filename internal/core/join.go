package core

import (
	"hique/internal/plan"
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

// JoinLoop is a join descriptor's compiled loop: the nested-loops
// template of Listing 2 specialised to the descriptor's algorithm, with
// each input's join key encoded once per join (§V-B). It holds no
// execution state; the caller's Cursor does.
type JoinLoop struct {
	alg plan.JoinAlgorithm
	// key[i] is input i's join key: it orders input i, and the merge
	// walk compares it with input 0's word by word.
	key []Key
}

// CompileJoin compiles the loop of a join over its staged inputs.
func CompileJoin(j *plan.Join) *JoinLoop {
	jl := &JoinLoop{alg: j.Alg, key: make([]Key, len(j.Inputs))}
	for i := range j.Inputs {
		jl.key[i] = CompileKey(j.Inputs[i].Schema, []int{j.Keys[i]})
	}
	return jl
}

// Cursor is one execution's join-loop state: the inputs of the current
// partition and, per input, the position of the current tuple and the
// merge walk's group bounds. Positions are integers so the loops store no
// pointers. Emit reads the current tuple set through Tuple. The fused
// pipelines keep one per tail state in their pooled scratch.
type Cursor struct {
	in         [][][]byte
	at, lo, hi []int
}

// Tuple returns input i's current tuple.
func (c *Cursor) Tuple(i int) []byte { return c.in[i][c.at[i]] }

func (c *Cursor) reset(k int) {
	if cap(c.at) < k {
		*c = Cursor{in: make([][][]byte, k), at: make([]int, k), lo: make([]int, k), hi: make([]int, k)}
	}
	c.in, c.at, c.lo, c.hi = c.in[:k], c.at[:k], c.lo[:k], c.hi[:k]
}

// Run joins corresponding partitions [lo, hi) of the staged inputs —
// parts[i] is input i's partitions; each input of a merge join is one
// partition its staging sorted — and hands every joined tuple set to
// emit, stopping as soon as emit returns false (the caller's pipeline is
// complete). Fine partitions hold one key value, so their product is the
// join; a hybrid partition pair is sorted just before the merge walk, so
// the pair is L2-resident (§V-B).
func (jl *JoinLoop) Run(parts [][][][]byte, lo, hi int, c *Cursor, emit func(c *Cursor) bool) {
	c.reset(len(parts))
	for p := lo; p < hi; p++ {
		empty := false
		for i := range parts {
			c.in[i] = parts[i][p]
			empty = empty || len(c.in[i]) == 0
		}
		if empty {
			continue
		}
		var ok bool
		switch jl.alg {
		case plan.FinePartitionJoin:
			for i, in := range c.in {
				c.lo[i], c.hi[i] = 0, len(in)
			}
			ok = product(c, emit)
		case plan.HybridJoin:
			for i, in := range c.in {
				jl.key[i].Sort(in)
			}
			ok = jl.merge(c, emit)
		default:
			ok = jl.merge(c, emit)
		}
		if !ok {
			return
		}
	}
}

// merge is the k-way sorted merge walk over the cursor's inputs: every
// input is ordered on its key; the walk advances all inputs to the next
// common key, delimits the matching group in each, and emits the product
// of the groups. For k == 2 this is the paper's merge join with
// backtracking over inner groups; join teams use k > 2 (§V-B).
func (jl *JoinLoop) merge(c *Cursor, emit func(c *Cursor) bool) bool {
	in, pos, ends, key := c.in, c.lo, c.hi, jl.key
	clear(pos)
	for {
		// Align every input on a common key with input 0.
		for i := 1; i < len(in); i++ {
			r := key[i].Compare(in[i][pos[i]], &key[0], in[0][pos[0]])
			for r < 0 {
				if pos[i]++; pos[i] >= len(in[i]) {
					return true
				}
				r = key[i].Compare(in[i][pos[i]], &key[0], in[0][pos[0]])
			}
			if r > 0 {
				if pos[0]++; pos[0] >= len(in[0]) {
					return true
				}
				i = 0 // realign from input 1
			}
		}
		// Delimit the matching group in every input.
		single := true
		for i, t := range in {
			e, head := pos[i]+1, t[pos[i]]
			for e < len(t) && key[i].Compare(t[e], &key[i], head) == 0 {
				e++
			}
			ends[i] = e
			single = single && e-pos[i] == 1
		}
		// Key/foreign-key joins have singleton groups everywhere but the
		// fact input: keep that path free of the product loops.
		if single {
			for i, x := range pos {
				c.at[i] = x
			}
			if !emit(c) {
				return false
			}
		} else if !product(c, emit) {
			return false
		}
		for i, t := range in {
			if pos[i] = ends[i]; pos[i] >= len(t) {
				return true
			}
		}
	}
}

// product emits the cross product of the cursor's groups — input i's
// tuples [lo[i], hi[i]) — one tuple per input at a time: a fine
// partition's join, and the merge walk's for one key. Two inputs — the
// binary join — take a plain double loop.
func product(c *Cursor, emit func(c *Cursor) bool) bool {
	if at := c.at; len(at) == 2 {
		lo1, hi0, hi1 := c.lo[1], c.hi[0], c.hi[1]
		for a := c.lo[0]; a < hi0; a++ {
			at[0] = a
			for b := lo1; b < hi1; b++ {
				at[1] = b
				if !emit(c) {
					return false
				}
			}
		}
		return true
	}
	return productFrom(c, 0, emit)
}

func productFrom(c *Cursor, d int, emit func(c *Cursor) bool) bool {
	if d == len(c.at) {
		return emit(c)
	}
	for x := c.lo[d]; x < c.hi[d]; x++ {
		c.at[d] = x
		if !productFrom(c, d+1, emit) {
			return false
		}
	}
	return true
}
