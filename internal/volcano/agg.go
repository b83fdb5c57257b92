package volcano

import (
	"fmt"
	"math"

	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/types"
)

// aggState is the boxed accumulator used by the iterator engine.
type aggState struct {
	sumF   []float64
	sumI   []int64
	cnt    []int64
	minF   []float64
	maxF   []float64
	minI   []int64
	maxI   []int64
	tuples int64
}

func newAggState(n int) *aggState {
	s := &aggState{
		sumF: make([]float64, n), sumI: make([]int64, n), cnt: make([]int64, n),
		minF: make([]float64, n), maxF: make([]float64, n),
		minI: make([]int64, n), maxI: make([]int64, n),
	}
	s.reset()
	return s
}

func (s *aggState) reset() {
	for i := range s.sumF {
		s.sumF[i], s.sumI[i], s.cnt[i] = 0, 0, 0
		s.minF[i], s.maxF[i] = math.Inf(1), math.Inf(-1)
		s.minI[i], s.maxI[i] = math.MaxInt64, math.MinInt64
	}
	s.tuples = 0
}

func (s *aggState) update(a *plan.Agg, row Row) {
	s.tuples++
	for i := range a.Aggs {
		spec := &a.Aggs[i]
		if spec.Star {
			continue
		}
		d := row[spec.Col]
		switch spec.Func {
		case sql.AggSum:
			if d.Kind == types.Float {
				s.sumF[i] += d.F
			} else {
				s.sumI[i] += d.I
			}
		case sql.AggAvg:
			s.sumF[i] += asFloat(d)
			s.cnt[i]++
		case sql.AggCount:
			s.cnt[i]++
		case sql.AggMin:
			if d.Kind == types.Float {
				if d.F < s.minF[i] {
					s.minF[i] = d.F
				}
			} else if d.I < s.minI[i] {
				s.minI[i] = d.I
			}
		case sql.AggMax:
			if d.Kind == types.Float {
				if d.F > s.maxF[i] {
					s.maxF[i] = d.F
				}
			} else if d.I > s.maxI[i] {
				s.maxI[i] = d.I
			}
		}
	}
}

func (s *aggState) result(a *plan.Agg, rep Row) Row {
	out := make(Row, len(a.Output))
	for pos, ref := range a.Output {
		if !ref.IsAgg {
			out[pos] = rep[a.GroupCols[ref.Index]]
			continue
		}
		i := ref.Index
		spec := &a.Aggs[i]
		switch spec.Func {
		case sql.AggSum:
			if spec.Kind == types.Float {
				out[pos] = types.FloatDatum(s.sumF[i])
			} else {
				out[pos] = types.IntDatum(s.sumI[i])
			}
		case sql.AggAvg:
			if s.cnt[i] > 0 {
				out[pos] = types.FloatDatum(s.sumF[i] / float64(s.cnt[i]))
			} else {
				out[pos] = types.FloatDatum(0)
			}
		case sql.AggCount:
			if spec.Star {
				out[pos] = types.IntDatum(s.tuples)
			} else {
				out[pos] = types.IntDatum(s.cnt[i])
			}
		case sql.AggMin:
			if spec.Kind == types.Float {
				out[pos] = types.FloatDatum(s.minF[i])
			} else {
				out[pos] = types.IntDatum(s.minI[i])
			}
		case sql.AggMax:
			if spec.Kind == types.Float {
				out[pos] = types.FloatDatum(s.maxF[i])
			} else {
				out[pos] = types.IntDatum(s.maxI[i])
			}
		}
	}
	return out
}

// sortAggIter implements sort aggregation: the child must be ordered on
// the grouping attributes; groups close on key change.
type sortAggIter struct {
	child   Iterator
	agg     *plan.Agg
	sameKey func(a, b Row) int
	state   *aggState

	rep     Row
	pending Row
	done    bool
}

// NewSortAgg aggregates a group-sorted child.
func NewSortAgg(child Iterator, agg *plan.Agg, mode Mode) Iterator {
	return &sortAggIter{
		child:   child,
		agg:     agg,
		sameKey: keyCompare(mode, agg.GroupCols, agg.GroupCols),
		state:   newAggState(len(agg.Aggs)),
	}
}

func (s *sortAggIter) Open() error {
	s.state.reset()
	s.rep, s.pending, s.done = nil, nil, false
	return s.child.Open()
}

func (s *sortAggIter) Next() (Row, bool, error) {
	if s.done {
		return nil, false, nil
	}
	if s.pending != nil {
		s.rep = s.pending
		s.pending = nil
		s.state.update(s.agg, s.rep)
	}
	for {
		row, ok, err := s.child.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			s.done = true
			if s.rep == nil {
				return nil, false, nil
			}
			out := s.state.result(s.agg, s.rep)
			s.rep = nil
			return out, true, nil
		}
		if s.rep == nil {
			s.rep = row
			s.state.update(s.agg, row)
			continue
		}
		if s.sameKey(s.rep, row) != 0 {
			out := s.state.result(s.agg, s.rep)
			s.state.reset()
			s.pending = row
			return out, true, nil
		}
		s.state.update(s.agg, row)
	}
}

func (s *sortAggIter) Close() error { return s.child.Close() }

// mapAggIter implements map aggregation in iterator form: one pass over the
// child with directory lookups per tuple (§VI-A's "Map - Iterators").
type mapAggIter struct {
	child Iterator
	agg   *plan.Agg

	states  []*aggState
	strides []int
	emitPos int
	drained bool
	idxs    []int
}

// NewMapAgg aggregates through value directories.
func NewMapAgg(child Iterator, agg *plan.Agg) (Iterator, error) {
	if len(agg.Directories) != len(agg.GroupCols) {
		return nil, fmt.Errorf("volcano: map aggregation needs directories")
	}
	return &mapAggIter{child: child, agg: agg}, nil
}

func (m *mapAggIter) Open() error {
	n := 1
	m.strides = make([]int, len(m.agg.GroupCols))
	for i := len(m.agg.GroupCols) - 1; i >= 0; i-- {
		m.strides[i] = n
		n *= m.agg.Directories[i].Len()
	}
	m.states = make([]*aggState, n)
	m.emitPos = 0
	m.drained = false
	m.idxs = make([]int, len(m.agg.GroupCols))
	return m.child.Open()
}

func (m *mapAggIter) Next() (Row, bool, error) {
	if !m.drained {
		for {
			row, ok, err := m.child.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			slot := 0
			miss := false
			for i, gc := range m.agg.GroupCols {
				di := m.agg.Directories[i].Index(row[gc])
				if di < 0 {
					miss = true
					break
				}
				slot += di * m.strides[i]
			}
			if miss {
				continue
			}
			if m.states[slot] == nil {
				m.states[slot] = newAggState(len(m.agg.Aggs))
			}
			m.states[slot].update(m.agg, row)
		}
		m.drained = true
	}
	for m.emitPos < len(m.states) {
		slot := m.emitPos
		m.emitPos++
		if m.states[slot] == nil {
			continue
		}
		rep := make(Row, len(m.agg.Input.Cols))
		rem := slot
		for i := range m.agg.GroupCols {
			m.idxs[i] = rem / m.strides[i]
			rem %= m.strides[i]
			rep[m.agg.GroupCols[i]] = m.agg.Directories[i].Datum(m.idxs[i])
		}
		return m.states[slot].result(m.agg, rep), true, nil
	}
	return nil, false, nil
}

func (m *mapAggIter) Close() error { return m.child.Close() }
