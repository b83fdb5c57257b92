package tpch

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"hique/internal/codegen"
	"hique/internal/core"
	"hique/internal/dsm"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/types"
	"hique/internal/volcano"
)

func TestGenerationDeterminism(t *testing.T) {
	a := Generate(Config{ScaleFactor: 0.005, Seed: 1})
	b := Generate(Config{ScaleFactor: 0.005, Seed: 1})
	for _, name := range []string{"lineitem", "orders", "customer"} {
		ea, _ := a.Lookup(name)
		eb, _ := b.Lookup(name)
		if ea.Table.NumRows() != eb.Table.NumRows() {
			t.Fatalf("%s: %d vs %d rows", name, ea.Table.NumRows(), eb.Table.NumRows())
		}
		for i := 0; i < ea.Table.NumRows(); i += 97 {
			ta := ea.Table.Tuple(i)
			tb := eb.Table.Tuple(i)
			if string(ta) != string(tb) {
				t.Fatalf("%s row %d differs between runs", name, i)
			}
		}
	}
}

func TestCardinalitiesScale(t *testing.T) {
	cat := Generate(Config{ScaleFactor: 0.01, Seed: 2})
	expect := map[string]int{
		"region":   5,
		"nation":   25,
		"supplier": 100,
		"customer": 1500,
		"part":     2000,
		"partsupp": 8000,
		"orders":   15000,
	}
	for name, want := range expect {
		e, err := cat.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if e.Table.NumRows() != want {
			t.Errorf("%s rows = %d, want %d", name, e.Table.NumRows(), want)
		}
	}
	// Lineitem averages ~4 lines per order.
	li, _ := cat.Lookup("lineitem")
	if n := li.Table.NumRows(); n < 15000 || n > 15000*7 {
		t.Errorf("lineitem rows = %d, outside [1,7] lines/order", n)
	}
}

func TestDistributions(t *testing.T) {
	cat := Generate(Config{ScaleFactor: 0.01, Seed: 3})
	li, _ := cat.Lookup("lineitem")
	s := li.Table.Schema()
	flags := map[string]int{}
	fOff, fSize := s.Offset(s.ColumnIndex("l_returnflag")), 1
	stOff := s.Offset(s.ColumnIndex("l_linestatus"))
	discOff := s.Offset(s.ColumnIndex("l_discount"))
	li.Table.Scan(func(tp []byte) bool {
		flags[types.GetString(tp, fOff, fSize)+types.GetString(tp, stOff, 1)]++
		if d := types.GetFloat(tp, discOff); d < 0 || d > 0.1 {
			t.Fatalf("discount %g out of range", d)
		}
		return true
	})
	// Q1 has at most 4 populated (flag,status) groups: RF, AF, NF, NO.
	for k := range flags {
		switch k {
		case "RF", "AF", "NF", "NO":
		default:
			t.Errorf("unexpected (returnflag,linestatus) combination %q", k)
		}
	}
	if len(flags) != 4 {
		t.Errorf("groups = %v, want the canonical four", flags)
	}
	// Segments roughly uniform.
	cust, _ := cat.Lookup("customer")
	cs := cust.Table.Schema()
	segOff := cs.Offset(cs.ColumnIndex("c_mktsegment"))
	segs := map[string]int{}
	cust.Table.Scan(func(tp []byte) bool {
		segs[types.GetString(tp, segOff, 10)]++
		return true
	})
	if len(segs) != 5 {
		t.Errorf("segments = %v", segs)
	}
	for seg, n := range segs {
		if n < 150 || n > 450 {
			t.Errorf("segment %s count %d far from uniform (expected ~300)", seg, n)
		}
	}
}

func TestQueriesParseAndPlan(t *testing.T) {
	cat := Generate(Config{ScaleFactor: 0.005, Seed: 4})
	for _, n := range QueryNumbers() {
		q, err := Query(n)
		if err != nil {
			t.Fatal(err)
		}
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("Q%d parse: %v", n, err)
		}
		p, err := plan.Build(stmt, cat)
		if err != nil {
			t.Fatalf("Q%d plan: %v", n, err)
		}
		if p.Agg == nil {
			t.Errorf("Q%d should aggregate", n)
		}
	}
	if _, err := Query(5); err == nil {
		t.Error("Query(5) should be rejected")
	}
}

func TestQ1PlanUsesMapAggregation(t *testing.T) {
	cat := Generate(Config{ScaleFactor: 0.01, Seed: 5})
	stmt, _ := sql.Parse(Q1)
	p, err := plan.Build(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	if p.Agg.Alg != plan.MapAggregation {
		t.Errorf("Q1 aggregation = %v, want map (2x3 directories)", p.Agg.Alg)
	}
}

func canonical(t *storage.Table) []string {
	s := t.Schema()
	var rows []string
	t.Scan(func(tp []byte) bool {
		var parts []string
		for i := 0; i < s.NumColumns(); i++ {
			d := s.GetDatum(tp, i)
			if d.Kind == types.Float {
				parts = append(parts, fmt.Sprintf("%.4f", d.F))
			} else {
				parts = append(parts, d.String())
			}
		}
		rows = append(rows, strings.Join(parts, "|"))
		return true
	})
	return rows
}

func TestQueriesAgreeAcrossEngines(t *testing.T) {
	cat := Generate(Config{ScaleFactor: 0.02, Seed: 6})
	engines := []plan.Executor{core.NewEngine(), volcano.NewGeneric(), volcano.NewOptimized(), dsm.NewEngine()}
	for _, n := range QueryNumbers() {
		q, _ := Query(n)
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Build(stmt, cat)
		if err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		var ref []string
		var refName string
		for _, e := range engines {
			out, err := e.Execute(p)
			if err != nil {
				t.Fatalf("Q%d on %s: %v", n, e.Name(), err)
			}
			rows := canonical(out)
			// Q3/Q10 are top-k on revenue: ties at the cut make strict
			// row-for-row comparison flaky, so compare the revenue
			// multiset plus full rows for the untied prefix.
			if refName == "" { // the first engine's rows, an empty set included
				ref, refName = rows, e.Name()
				continue
			}
			if len(rows) != len(ref) {
				t.Errorf("Q%d: %s rows %d vs %s rows %d", n, e.Name(), len(rows), refName, len(ref))
				continue
			}
			a := append([]string(nil), ref...)
			b := append([]string(nil), rows...)
			sort.Strings(a)
			sort.Strings(b)
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("Q%d: multiset differs between %s and %s at %d:\n  %s\n  %s",
						n, refName, e.Name(), i, a[i], b[i])
					break
				}
			}
		}
	}
}

func TestQueryUnsupportedNumbersReturnTypedError(t *testing.T) {
	for _, n := range []int{0, 2, 5, 22, -1} {
		_, err := Query(n)
		if err == nil {
			t.Fatalf("Query(%d) should fail", n)
		}
		if !errors.Is(err, ErrUnsupported) {
			t.Errorf("Query(%d) error %v does not wrap ErrUnsupported", n, err)
		}
	}
	for _, n := range QueryNumbers() {
		if _, err := Query(n); err != nil {
			t.Errorf("Query(%d): %v", n, err)
		}
	}
}

// TestTPCHGoldenResultsAcrossEngines pins Q1/Q3/Q6/Q10 at SF 0.01 with
// Seed 42 — the exact catalogue hique-server's -tpch flag loads, so the
// conformance suite's goldens and these agree — and asserts byte-identical
// results across every engine.
func TestTPCHGoldenResultsAcrossEngines(t *testing.T) {
	cat := Generate(Config{ScaleFactor: 0.01, Seed: 42})
	engines := []plan.Executor{
		core.NewEngine(),
		codegen.Executor{},
		volcano.NewGeneric(),
		volcano.NewOptimized(),
		dsm.NewEngine(),
	}
	golden := map[int]struct {
		rows  int
		first string
	}{
		1:  {4, "A|F|405755.0000|385365653.0000|366301290.5700|380955699.6240|25.4344|24156.3125|0.0495|15953"},
		3:  {10, "1921|192593.9220|date(9196)|0"},
		6:  {1, "826509.6720"},
		10: {20, "1257|Customer#000001257|319568.6150|7193.1596|IRAN|addr-1257-95407|20-812-717-8599"},
	}
	for _, n := range QueryNumbers() {
		q, _ := Query(n)
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("Q%d parse: %v", n, err)
		}
		p, err := plan.Build(stmt, cat)
		if err != nil {
			t.Fatalf("Q%d plan: %v", n, err)
		}
		var ref []string
		var refOut *storage.Table
		var refName string
		for _, e := range engines {
			out, err := e.Execute(p)
			if err != nil {
				t.Fatalf("Q%d on %s: %v", n, e.Name(), err)
			}
			rows := canonical(out)
			if refOut == nil { // the first engine's rows, an empty set included
				ref, refOut, refName = rows, out, e.Name()
				g := golden[n]
				if len(rows) != g.rows {
					t.Errorf("Q%d: %d rows, golden %d", n, len(rows), g.rows)
				}
				if len(rows) > 0 && rows[0] != g.first {
					t.Errorf("Q%d first row drifted from golden:\n  got  %s\n  want %s", n, rows[0], g.first)
				}
				continue
			}
			if len(rows) != len(ref) {
				t.Errorf("Q%d: %s returned %d rows, %s returned %d", n, e.Name(), len(rows), refName, len(ref))
				continue
			}
			for i := range ref {
				if !sameRow(refOut, out, i) {
					t.Errorf("Q%d: row %d differs between %s and %s:\n  %s\n  %s",
						n, i, refName, e.Name(), ref[i], rows[i])
					break
				}
			}
		}
	}
}

// sameRow compares row i of two results column by column: integers,
// dates and strings exactly, floats to 1e-9 relative — the fused
// scan → aggregate folds its float sums chunk by chunk (a fixed order of
// its own, for every worker count), the other engines tuple by tuple,
// and a printed %.4f can round a 1e-16 difference either way.
func sameRow(a, b *storage.Table, i int) bool {
	s := a.Schema()
	ta, tb := a.Tuple(i), b.Tuple(i)
	for c := 0; c < s.NumColumns(); c++ {
		x, y := s.GetDatum(ta, c), b.Schema().GetDatum(tb, c)
		if x.Kind != types.Float {
			if types.Compare(x, y) != 0 {
				return false
			}
			continue
		}
		if d := math.Abs(x.F - y.F); d > 1e-9*math.Max(math.Abs(x.F), math.Abs(y.F)) {
			return false
		}
	}
	return true
}

func TestQ1GroupCountMatchesReference(t *testing.T) {
	cat := Generate(Config{ScaleFactor: 0.01, Seed: 7})
	stmt, _ := sql.Parse(Q1)
	p, err := plan.Build(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.NewEngine().Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 4 {
		t.Errorf("Q1 groups = %d, want 4", out.NumRows())
	}
	// COUNT column must sum to the number of qualifying lineitems.
	li, _ := cat.Lookup("lineitem")
	s := li.Table.Schema()
	shipOff := s.Offset(s.ColumnIndex("l_shipdate"))
	cutoff := days(1998, 9, 2)
	want := int64(0)
	li.Table.Scan(func(tp []byte) bool {
		if types.GetInt(tp, shipOff) <= cutoff {
			want++
		}
		return true
	})
	os := out.Schema()
	cntIdx := os.ColumnIndex("count_order")
	var got int64
	out.Scan(func(tp []byte) bool {
		got += types.GetInt(tp, os.Offset(cntIdx))
		return true
	})
	if got != want {
		t.Errorf("sum of count_order = %d, want %d", got, want)
	}
}
