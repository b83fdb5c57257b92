package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"hique/internal/sql"
)

// The cold_prepare workload needs more distinct statement shapes than
// the plan cache holds, so every statement is a miss. A shape is what
// survives sql.NormalizeShape: comparison literals are lifted out, so
// shapes differ only in structure — tables, projected columns, predicate
// columns and operators, grouping, ordering, LIMIT counts.
//
// Every statement carries a narrow key range on its driving table, so it
// selects few rows and execution stays small next to preparation.
// lineitem is left out: a 60k-row scan costs more than the whole
// preparation pipeline and would turn the workload into a scan benchmark.

type colKind byte

const (
	kInt colKind = iota
	kFloat
	kDate
	kString
)

// colDesc describes one column of the TPC-H schema as internal/tpch
// generates it at SF 0.01: its kind, the value domain predicates draw
// literals from, and whether it is a sensible GROUP BY column.
type colDesc struct {
	name   string
	kind   colKind
	lo, hi int64    // numeric/date domain (dates in days since the epoch)
	vals   []string // string domain; empty means no predicates on it
	group  bool     // low-cardinality: usable in GROUP BY
}

type tableDesc struct {
	name string
	cols []colDesc
	key  []string // unique key; the first column carries the range predicate
	rows int64    // key domain of key[0] is [1, rows] ([0, rows) for region/nation)
	base int64    // smallest key[0] value
}

func day(y int, m time.Month, d int) int64 {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC).Unix() / 86400
}

var (
	segVals    = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	prioVals   = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECI", "5-LOW"}
	regionVals = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationVals = []string{"ALGERIA", "BRAZIL", "CANADA", "FRANCE", "GERMANY", "INDIA", "JAPAN", "PERU", "CHINA", "RUSSIA"}
	brandVals  = []string{"Brand#11", "Brand#23", "Brand#35", "Brand#42", "Brand#54"}
)

var schema = map[string]*tableDesc{
	"region": {name: "region", key: []string{"r_regionkey"}, rows: 5, cols: []colDesc{
		{name: "r_regionkey", kind: kInt, lo: 0, hi: 4, group: true},
		{name: "r_name", kind: kString, vals: regionVals, group: true},
	}},
	"nation": {name: "nation", key: []string{"n_nationkey"}, rows: 25, cols: []colDesc{
		{name: "n_nationkey", kind: kInt, lo: 0, hi: 24},
		{name: "n_name", kind: kString, vals: nationVals, group: true},
		{name: "n_regionkey", kind: kInt, lo: 0, hi: 4, group: true},
	}},
	"supplier": {name: "supplier", key: []string{"s_suppkey"}, rows: 100, base: 1, cols: []colDesc{
		{name: "s_suppkey", kind: kInt, lo: 1, hi: 100},
		{name: "s_name", kind: kString},
		{name: "s_nationkey", kind: kInt, lo: 0, hi: 24, group: true},
		{name: "s_acctbal", kind: kFloat, lo: -999, hi: 9999},
	}},
	"customer": {name: "customer", key: []string{"c_custkey"}, rows: 1500, base: 1, cols: []colDesc{
		{name: "c_custkey", kind: kInt, lo: 1, hi: 1500},
		{name: "c_name", kind: kString},
		{name: "c_address", kind: kString},
		{name: "c_nationkey", kind: kInt, lo: 0, hi: 24, group: true},
		{name: "c_phone", kind: kString},
		{name: "c_acctbal", kind: kFloat, lo: -999, hi: 9999},
		{name: "c_mktsegment", kind: kString, vals: segVals, group: true},
	}},
	"part": {name: "part", key: []string{"p_partkey"}, rows: 2000, base: 1, cols: []colDesc{
		{name: "p_partkey", kind: kInt, lo: 1, hi: 2000},
		{name: "p_name", kind: kString},
		{name: "p_brand", kind: kString, vals: brandVals, group: true},
		{name: "p_size", kind: kInt, lo: 1, hi: 50, group: true},
		{name: "p_retailprice", kind: kFloat, lo: 900, hi: 1000},
	}},
	"partsupp": {name: "partsupp", key: []string{"ps_partkey", "ps_suppkey"}, rows: 2000, base: 1, cols: []colDesc{
		{name: "ps_partkey", kind: kInt, lo: 1, hi: 2000},
		{name: "ps_suppkey", kind: kInt, lo: 1, hi: 100, group: true},
		{name: "ps_availqty", kind: kInt, lo: 1, hi: 9999},
		{name: "ps_supplycost", kind: kFloat, lo: 1, hi: 1000},
	}},
	"orders": {name: "orders", key: []string{"o_orderkey"}, rows: 15000, base: 1, cols: []colDesc{
		{name: "o_orderkey", kind: kInt, lo: 1, hi: 15000},
		{name: "o_custkey", kind: kInt, lo: 1, hi: 1500},
		{name: "o_orderstatus", kind: kString, vals: []string{"F", "O", "P"}, group: true},
		{name: "o_totalprice", kind: kFloat, lo: 900, hi: 400000},
		{name: "o_orderdate", kind: kDate, lo: day(1992, 1, 1), hi: day(1998, 3, 1)},
		{name: "o_orderpriority", kind: kString, vals: prioVals, group: true},
	}},
}

// chain is a join path: the driving table first, then tables reached
// over foreign keys. Every join is many-to-one, so the driving table's
// key stays unique in the result and gives ORDER BY a total order.
type chain struct {
	tables []string
	on     []string // equi-join conjuncts
}

var chains = []chain{
	{tables: []string{"region"}},
	{tables: []string{"nation"}},
	{tables: []string{"supplier"}},
	{tables: []string{"customer"}},
	{tables: []string{"part"}},
	{tables: []string{"partsupp"}},
	{tables: []string{"orders"}},
	{tables: []string{"nation", "region"}, on: []string{"n_regionkey = r_regionkey"}},
	{tables: []string{"supplier", "nation"}, on: []string{"s_nationkey = n_nationkey"}},
	{tables: []string{"customer", "nation"}, on: []string{"c_nationkey = n_nationkey"}},
	{tables: []string{"orders", "customer"}, on: []string{"o_custkey = c_custkey"}},
	{tables: []string{"partsupp", "part"}, on: []string{"ps_partkey = p_partkey"}},
	{tables: []string{"partsupp", "supplier"}, on: []string{"ps_suppkey = s_suppkey"}},
	{tables: []string{"supplier", "nation", "region"}, on: []string{"s_nationkey = n_nationkey", "n_regionkey = r_regionkey"}},
	{tables: []string{"customer", "nation", "region"}, on: []string{"c_nationkey = n_nationkey", "n_regionkey = r_regionkey"}},
	{tables: []string{"orders", "customer", "nation"}, on: []string{"o_custkey = c_custkey", "c_nationkey = n_nationkey"}},
	{tables: []string{"partsupp", "part", "supplier"}, on: []string{"ps_partkey = p_partkey", "ps_suppkey = s_suppkey"}},
	{tables: []string{"partsupp", "supplier", "nation"}, on: []string{"ps_suppkey = s_suppkey", "s_nationkey = n_nationkey"}},
}

// genStmt is one generated statement and how its result compares.
type genStmt struct {
	text string
	// ordered statements have a total ORDER BY (or a single-row answer)
	// and compare position by position; the rest compare as multisets.
	ordered bool
}

func literal(r *rand.Rand, c colDesc) string {
	switch c.kind {
	case kInt:
		return fmt.Sprint(c.lo + r.Int63n(c.hi-c.lo+1))
	case kFloat:
		return fmt.Sprintf("%.2f", float64(c.lo)+r.Float64()*float64(c.hi-c.lo))
	case kDate:
		d := c.lo + r.Int63n(c.hi-c.lo+1)
		return "DATE '" + time.Unix(d*86400, 0).UTC().Format("2006-01-02") + "'"
	default:
		return "'" + c.vals[r.Intn(len(c.vals))] + "'"
	}
}

var (
	numericOps = []string{"=", "<", "<=", ">", ">=", "<>"}
	stringOps  = []string{"=", "<>"}
)

// pick returns k distinct indexes below n, in ascending order.
func pick(r *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	perm := r.Perm(n)[:k]
	slices.Sort(perm)
	return perm
}

// drawStmt draws one statement over the TPC-H schema.
func drawStmt(r *rand.Rand) genStmt {
	ch := chains[r.Intn(len(chains))]
	drive := schema[ch.tables[0]]
	var cols []colDesc
	for _, t := range ch.tables {
		cols = append(cols, schema[t].cols...)
	}

	// WHERE: join conjuncts, the narrow key range, 0-2 extra predicates.
	where := append([]string(nil), ch.on...)
	width := 1 + r.Int63n(40)
	if width > drive.rows {
		width = drive.rows
	}
	lo := drive.base + r.Int63n(drive.rows-width+1)
	where = append(where,
		fmt.Sprintf("%s >= %d", drive.key[0], lo),
		fmt.Sprintf("%s < %d", drive.key[0], lo+width))
	for n := r.Intn(3); n > 0; n-- {
		c := cols[r.Intn(len(cols))]
		switch {
		case c.kind == kString && len(c.vals) == 0:
			continue
		case c.kind == kString:
			where = append(where, fmt.Sprintf("%s %s %s", c.name, stringOps[r.Intn(len(stringOps))], literal(r, c)))
		default:
			where = append(where, fmt.Sprintf("%s %s %s", c.name, numericOps[r.Intn(len(numericOps))], literal(r, c)))
		}
	}

	var sel, tail []string
	ordered := false
	if r.Intn(100) < 35 {
		// Aggregation: 0-2 GROUP BY columns, 1-3 aggregates, ordered by the
		// group columns (a total order over groups).
		var groupable, numeric []colDesc
		for _, c := range cols {
			if c.group {
				groupable = append(groupable, c)
			}
			if c.kind == kInt || c.kind == kFloat {
				numeric = append(numeric, c)
			}
		}
		var groups []string
		for _, i := range pick(r, len(groupable), r.Intn(3)) {
			groups = append(groups, groupable[i].name)
		}
		sel = append(sel, groups...)
		for i, n := 0, 1+r.Intn(3); i < n; i++ {
			c := numeric[r.Intn(len(numeric))]
			alias := fmt.Sprintf("a%d", i)
			switch f := r.Intn(5); {
			case f == 0:
				sel = append(sel, "COUNT(*) AS "+alias)
			case f == 1:
				sel = append(sel, fmt.Sprintf("SUM(%s) AS %s", c.name, alias))
			case f == 2:
				sel = append(sel, fmt.Sprintf("MIN(%s) AS %s", c.name, alias))
			case f == 3:
				sel = append(sel, fmt.Sprintf("MAX(%s) AS %s", c.name, alias))
			default:
				sel = append(sel, fmt.Sprintf("AVG(%s) AS %s", c.name, alias))
			}
		}
		ordered = true
		if len(groups) > 0 {
			tail = append(tail, "GROUP BY "+strings.Join(groups, ", "), "ORDER BY "+strings.Join(groups, ", "))
			if r.Intn(2) == 0 {
				tail = append(tail, fmt.Sprintf("LIMIT %d", []int{1, 3, 5, 10}[r.Intn(4)]))
			}
		}
	} else {
		// Projection: 1-4 columns, sometimes one arithmetic expression;
		// half the statements order by the driving key, half of those
		// take a LIMIT.
		var names []string
		for _, i := range pick(r, len(cols), 1+r.Intn(4)) {
			names = append(names, cols[i].name)
		}
		if r.Intn(2) == 0 {
			ordered = true
			for _, k := range drive.key {
				if !slices.Contains(names, k) {
					names = append(names, k)
				}
			}
			dir := ""
			if r.Intn(3) == 0 {
				dir = " DESC"
			}
			keys := make([]string, len(drive.key))
			for i, k := range drive.key {
				keys[i] = k + dir
			}
			tail = append(tail, "ORDER BY "+strings.Join(keys, ", "))
			if r.Intn(2) == 0 {
				tail = append(tail, fmt.Sprintf("LIMIT %d", []int{1, 5, 10, 20}[r.Intn(4)]))
			}
		}
		sel = names
		if r.Intn(5) == 0 {
			for _, c := range cols {
				if c.kind == kFloat {
					sel = append(sel, fmt.Sprintf("%s * (1 + 0.05) AS x1", c.name))
					break
				}
			}
		}
	}

	text := "SELECT " + strings.Join(sel, ", ") +
		" FROM " + strings.Join(ch.tables, ", ") +
		" WHERE " + strings.Join(where, " AND ")
	if len(tail) > 0 {
		text += " " + strings.Join(tail, " ")
	}
	return genStmt{text: text, ordered: ordered}
}

// genShapes draws statements from the seed until n of them have
// distinct shapes.
func genShapes(seed int64, n int) ([]genStmt, error) {
	r := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	out := make([]genStmt, 0, n)
	for tries := 0; len(out) < n; tries++ {
		if tries > 100*n {
			return nil, fmt.Errorf("shapes: only %d distinct shapes after %d draws", len(out), tries)
		}
		st := drawStmt(r)
		shape, _, err := sql.NormalizeShape(st.text)
		if err != nil {
			return nil, fmt.Errorf("shapes: %s: %w", st.text, err)
		}
		if seen[shape] {
			continue
		}
		seen[shape] = true
		out = append(out, st)
	}
	return out, nil
}
