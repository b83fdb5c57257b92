package hardcoded

import (
	"hique/internal/core"
	"hique/internal/hwsim"
	"hique/internal/storage"
	"hique/internal/types"
)

// staged is a sorted (or partitioned) tuple array plus its synthetic base
// address for the cache simulator.
type staged struct {
	tuples [][]byte
	base   int64
}

func (s *staged) addr(i int) int64 { return s.base + int64(i)*TupleWidth }

// stageSorted materialises and sorts a table on its key (field 0) through
// core's compiled key sort. The code (and
// therefore the simulated access pattern) is identical for all five
// shapes, per §VI-A: staging differences are not what the experiment
// measures.
func stageSorted(t *storage.Table, probe *hwsim.Probe) staged {
	tuples := core.Flatten(t)
	key := core.CompileKey(t.Schema(), []int{0})
	key.Sort(tuples)
	out := staged{tuples: tuples}
	if probe != nil {
		out.base = probe.AllocBase(int64(len(tuples)) * TupleWidth)
		chargeScan(probe, t, len(tuples))
		chargeSort(probe, out.base, len(tuples))
	}
	return out
}

// stagePartitioned hash-partitions a table into m buckets and sorts each
// bucket (the hybrid hash-sort staging). Shared across shapes.
func stagePartitioned(t *storage.Table, m int, probe *hwsim.Probe) []staged {
	parts := make([][][]byte, m)
	mask := uint64(m - 1)
	t.Scan(func(tuple []byte) bool {
		p := core.HashInt(types.GetInt(tuple, 0)) & mask
		parts[p] = append(parts[p], tuple)
		return true
	})
	out := make([]staged, m)
	key := core.CompileKey(t.Schema(), []int{0})
	for i := range parts {
		key.Sort(parts[i])
		out[i] = staged{tuples: parts[i]}
		if probe != nil {
			out[i].base = probe.AllocBase(int64(len(parts[i])) * TupleWidth)
		}
	}
	if probe != nil {
		chargeScan(probe, t, t.NumRows())
		// Partition writes: one tuple write per input tuple, spread
		// over m open partition buffers.
		for i := range out {
			chargeSort(probe, out[i].base, len(out[i].tuples))
		}
	}
	return out
}

// chargeScan models one sequential pass over the input heap.
func chargeScan(probe *hwsim.Probe, t *storage.Table, rows int) {
	base := probe.AllocBase(int64(t.NumPages()) * storage.PageSize)
	for p := 0; p < t.NumPages(); p++ {
		pageBase := base + int64(p)*storage.PageSize
		n := t.Page(p).NumTuples()
		for i := 0; i < n; i++ {
			probe.Read(pageBase+storage.HeaderSize+int64(i)*TupleWidth, TupleWidth)
		}
		probe.Call() // read_page
		probe.Op(8)
	}
	probe.Op(rows * 2)
}

// chargeSort models the shared quicksort-and-merge over a staged area:
// n·log2(runLen) comparisons within L2-resident runs (two key reads each),
// then one sequential merge pass.
func chargeSort(probe *hwsim.Probe, base int64, n int) {
	if n < 2 {
		return
	}
	runLen := (2 << 20) / 2 / TupleWidth
	x := uint64(base) | 1
	log2 := 0
	for 1<<log2 < min(runLen, n) {
		log2++
	}
	compares := n * log2
	for c := 0; c < compares; c++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		runStart := (int(x>>33) % max(n/max(runLen, 1), 1)) * runLen
		i := runStart + int(x%uint64(min(runLen, n)))
		j := runStart + int((x>>17)%uint64(min(runLen, n)))
		if i >= n {
			i = n - 1
		}
		if j >= n {
			j = n - 1
		}
		probe.Read(base+int64(i)*TupleWidth, 8)
		probe.Read(base+int64(j)*TupleWidth, 8)
		probe.Op(4)
	}
	if n > runLen {
		// Merge pass: sequential read of the whole area.
		for i := 0; i < n; i++ {
			probe.Read(base+int64(i)*TupleWidth, TupleWidth)
		}
		probe.Op(n * 3)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// emitBuffer simulates result propagation without materialising output
// (the paper does not materialise results either): tuples are copied into
// a reusable, cache-hot buffer.
type emitBuffer struct {
	buf  []byte
	base int64
	rows int
}

func newEmitBuffer(probe *hwsim.Probe, width int) *emitBuffer {
	e := &emitBuffer{buf: make([]byte, width)}
	if probe != nil {
		e.base = probe.AllocBase(int64(width))
	}
	return e
}
