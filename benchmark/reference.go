package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"hique"
	"hique/internal/catalog"
)

// The reference is the optimized-iterators engine (internal/volcano)
// over the same catalogue: an independent implementation of every
// operator, never the holistic engine under test. Expected results are
// computed in set-up; the timed responses compare row for row.

func openReference(cat *catalog.Catalog) *hique.DB {
	return hique.Open(hique.WithCatalog(cat), hique.WithEngine(hique.OptimizedIterators))
}

// expectRows runs a statement on the reference and returns a private
// copy of its rows.
func expectRows(ref *hique.DB, stmt string, args ...any) ([][]any, error) {
	res, err := ref.Query(stmt, args...)
	if err != nil {
		return nil, fmt.Errorf("reference: %s: %w", stmt, err)
	}
	return copyRows(res.Rows), nil
}

// keyedRows is one whole-table projection computed by the reference,
// indexed by its first column (an integer key), so that the thousands of
// key lookups a serving workload draws cost one reference scan instead
// of one each.
type keyedRows struct {
	rows  [][]any
	byKey map[int64][]int
}

// referenceTable runs "SELECT <cols> FROM <table>" on the reference.
func referenceTable(ref *hique.DB, cols, table string) (*keyedRows, error) {
	rows, err := expectRows(ref, "SELECT "+cols+" FROM "+table)
	if err != nil {
		return nil, err
	}
	k := &keyedRows{rows: rows, byKey: make(map[int64][]int, len(rows))}
	for i, r := range rows {
		key, ok := r[0].(int64)
		if !ok {
			return nil, fmt.Errorf("reference: first column of %s (%s) is not an integer key", table, cols)
		}
		k.byKey[key] = append(k.byKey[key], i)
	}
	return k, nil
}

// between returns the rows with lo <= key < hi in the reference's own
// (storage) order.
func (k *keyedRows) between(lo, hi int64) [][]any {
	var idx []int
	for key := lo; key < hi; key++ {
		idx = append(idx, k.byKey[key]...)
	}
	sort.Ints(idx)
	out := make([][]any, len(idx))
	for i, j := range idx {
		out[i] = k.rows[j]
	}
	return out
}

func copyRows(rows [][]any) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		out[i] = append([]any(nil), r...)
	}
	return out
}

// cellEqual compares a reference cell (int64 / float64 / string) with a
// cell of the engine under test: the same Go types in process, or
// json.Number / string off the wire. Integers, dates and strings compare
// exactly; floats allow 1e-9 relative drift, because morsel-parallel
// aggregation sums in a different order than the serial reference.
func cellEqual(want, got any) bool {
	switch w := want.(type) {
	case string:
		g, ok := got.(string)
		return ok && g == w
	case int64:
		switch g := got.(type) {
		case int64:
			return g == w
		case json.Number:
			v, err := g.Int64()
			return err == nil && v == w
		}
	case float64:
		var g float64
		switch v := got.(type) {
		case float64:
			g = v
		case json.Number:
			f, err := v.Float64()
			if err != nil {
				return false
			}
			g = f
		default:
			return false
		}
		return math.Abs(g-w) <= 1e-9*math.Abs(w)+1e-9
	}
	return false
}

// rowsEqual reports whether got matches want. ordered statements (a
// total ORDER BY, or a single-row answer) compare position by position;
// the rest compare as multisets, since SQL fixes no order for them and
// the engines only promise identical row multisets.
func rowsEqual(want, got [][]any, ordered bool) bool {
	if len(want) != len(got) {
		return false
	}
	if !ordered && len(want) > 1 {
		want, got = sortedRows(want), sortedRows(got)
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			return false
		}
		for j := range want[i] {
			if !cellEqual(want[i][j], got[i][j]) {
				return false
			}
		}
	}
	return true
}

// sortedRows orders rows by a canonical rendering of their cells. It is
// used only for statements without aggregation, whose float cells are
// copies of stored values and so render identically on both sides.
func sortedRows(rows [][]any) [][]any {
	keys := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for _, c := range r {
			switch v := c.(type) {
			case string:
				b.WriteString(v)
			case int64:
				b.WriteString(strconv.FormatInt(v, 10))
			case float64:
				b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			case json.Number:
				if f, err := v.Float64(); err == nil && strings.ContainsAny(string(v), ".eE") {
					b.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
				} else {
					b.WriteString(string(v))
				}
			}
			b.WriteByte(0)
		}
		keys[i] = b.String()
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([][]any, len(rows))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out
}

// wireResponse is the union of the server's POST /query bodies.
type wireResponse struct {
	Rows         [][]any `json:"rows"`
	RowsAffected *int    `json:"rows_affected"`
	Error        string  `json:"error"`
}

// decodeWire parses a response body keeping the integer/float
// distinction the comparison needs.
func decodeWire(body []byte, out *wireResponse) error {
	*out = wireResponse{}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	return dec.Decode(out)
}
