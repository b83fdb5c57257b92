// Package enginetest cross-checks every query engine in the repository
// against every other on a shared query corpus: the correctness
// verification the paper calls out as a main engineering challenge of code
// generation (§V-C). All engines must return identical row multisets.
package enginetest

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"hique/internal/catalog"
	"hique/internal/codegen"
	"hique/internal/core"
	"hique/internal/dsm"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/types"
	"hique/internal/volcano"
)

// shapedEngine is the -O2 generator over the statement as DB.Query shapes
// it when the plan cache is on: literals lifted into bind slots by the
// lexer pass, the plan built from the parameterised text, the lifted
// values bound at run time. That is also exactly what Prepare with '?'
// placeholders compiles; the other engines run what Prepare with
// literals does.
type shapedEngine struct {
	cat  *catalog.Catalog
	opts plan.Options
	q    string
}

func (shapedEngine) Name() string { return "codegen-O2(shaped)" }

func (e shapedEngine) Execute(*plan.Plan) (*storage.Table, error) {
	var sb sql.ShapeBuf
	if err := sb.Shape(e.q); err != nil {
		return nil, err
	}
	stmt, err := sql.Parse(string(sb.Out))
	if err != nil {
		return nil, err
	}
	p, err := plan.BuildWithOptions(stmt, e.cat, e.opts)
	if err != nil {
		return nil, err
	}
	if len(sb.Lits) != len(p.Params) {
		return nil, fmt.Errorf("shape lifted %d literals, plan has %d slots", len(sb.Lits), len(p.Params))
	}
	params := make([]types.Datum, len(p.Params))
	for i, slot := range p.Params {
		if params[i], err = plan.LiteralDatum(sb.Lits[i].Expr(), slot.Kind); err != nil {
			return nil, err
		}
	}
	q, err := codegen.Generate(p, codegen.OptO2)
	if err != nil {
		return nil, err
	}
	return q.Run(params...)
}

func engines() []plan.Executor {
	return []plan.Executor{
		core.NewEngine(),
		codegen.Executor{},
		volcano.NewGeneric(),
		volcano.NewOptimized(),
		dsm.NewEngine(),
	}
}

// fixture builds a three-table schema exercising every algorithm:
//
//	ev(id INT, k INT, grp INT, price FLOAT, tag CHAR(4), day DATE, amt FLOAT)
//	dm(k2 INT, bucket INT)
//	xt(k3 INT, weight FLOAT)
//	da(ka INT, v INT), db(kb INT, w INT)   disjoint key domains
//	fa(fk FLOAT, fv INT), fb(gk FLOAT, gw INT)   float keys, both zeros
func fixture(seed int64, nEv, nDm, nXt int) *catalog.Catalog {
	cat := catalog.New()
	rng := rand.New(rand.NewSource(seed))
	tags := []string{"aa", "bb", "cc", "dd"}

	ev := storage.NewTable("ev", types.NewSchema(
		types.Col("id", types.Int), types.Col("k", types.Int),
		types.Col("grp", types.Int), types.Col("price", types.Float),
		types.CharCol("tag", 4), types.Col("day", types.Date),
		types.Col("amt", types.Float)))
	for i := 0; i < nEv; i++ {
		ev.AppendRow(
			types.IntDatum(int64(i)),
			types.IntDatum(int64(rng.Intn(nDm))),
			types.IntDatum(int64(rng.Intn(13))),
			types.FloatDatum(float64(rng.Intn(10000))/100),
			types.StringDatum(tags[rng.Intn(len(tags))]),
			types.DateDatum(int64(10000+rng.Intn(300))),
			// Eighths sum exactly in any order, so SUM and AVG over amt
			// compare bit for bit between engines and morsel merges.
			types.FloatDatum(float64(i%1009)/8))
	}
	cat.Register(ev)

	dm := storage.NewTable("dm", types.NewSchema(
		types.Col("k2", types.Int), types.Col("bucket", types.Int)))
	for i := 0; i < nDm; i++ {
		dm.AppendRow(types.IntDatum(int64(i)), types.IntDatum(int64(i%11)))
	}
	cat.Register(dm)

	xt := storage.NewTable("xt", types.NewSchema(
		types.Col("k3", types.Int), types.Col("weight", types.Float)))
	for i := 0; i < nXt; i++ {
		xt.AppendRow(types.IntDatum(int64(rng.Intn(nDm))), types.FloatDatum(float64(i)))
	}
	cat.Register(xt)

	// da and db share no key value: their fine-partition join reconciles
	// to an empty value directory.
	da := storage.NewTable("da", types.NewSchema(
		types.Col("ka", types.Int), types.Col("v", types.Int)))
	db := storage.NewTable("db", types.NewSchema(
		types.Col("kb", types.Int), types.Col("w", types.Int)))
	for i := 0; i < 2000; i++ {
		da.AppendRow(types.IntDatum(int64(i%5)), types.IntDatum(int64(i)))
		db.AppendRow(types.IntDatum(int64(10+i%5)), types.IntDatum(int64(i)))
	}
	cat.Register(da)
	cat.Register(db)

	// fa and fb join on a float key that holds -0 on some rows and +0 on
	// others: every zero joins every zero.
	fa := storage.NewTable("fa", types.NewSchema(
		types.Col("fk", types.Float), types.Col("fv", types.Int)))
	fb := storage.NewTable("fb", types.NewSchema(
		types.Col("gk", types.Float), types.Col("gw", types.Int)))
	for i := 0; i < 600; i++ {
		fk, gk := float64(i%40)/4-2, float64(i%30)/2-3
		if i%7 == 0 {
			fk = math.Copysign(0, -1)
		}
		if i%11 == 0 {
			gk = math.Copysign(0, -1)
		}
		fa.AppendRow(types.FloatDatum(fk), types.IntDatum(int64(i)))
		fb.AppendRow(types.FloatDatum(gk), types.IntDatum(int64(i)))
	}
	cat.Register(fa)
	cat.Register(fb)
	return cat
}

var corpus = []string{
	// Scan / select / project.
	"SELECT id, price FROM ev",
	"SELECT id FROM ev WHERE grp = 5",
	"SELECT id, price FROM ev WHERE price > 50.0 AND tag = 'aa'",
	"SELECT id, price * 2 AS p2, price * (1 + price) AS poly FROM ev WHERE day >= 10100",
	"SELECT id FROM ev WHERE tag <> 'bb' AND grp >= 4 AND grp <= 9",
	// Sorting and limits.
	"SELECT id, price FROM ev ORDER BY price DESC, id LIMIT 25",
	"SELECT id FROM ev WHERE grp = 3 ORDER BY id",
	// Aggregation on base tables.
	"SELECT grp, COUNT(*) AS n FROM ev GROUP BY grp ORDER BY grp",
	"SELECT tag, SUM(price) AS total, AVG(price) AS mean FROM ev GROUP BY tag ORDER BY tag",
	"SELECT grp, tag, COUNT(*) AS n, MIN(id), MAX(id) FROM ev GROUP BY grp, tag ORDER BY grp, tag",
	"SELECT tag, SUM(price * (1 - price)) AS adj FROM ev WHERE grp < 8 GROUP BY tag ORDER BY tag",
	// Integer SUM: map aggregation must widen int64 values before
	// accumulating into its float64 arrays.
	"SELECT grp, SUM(id) AS s FROM ev GROUP BY grp ORDER BY grp",
	// LIMIT over aggregation bounds groups emitted, not input rows.
	"SELECT grp, COUNT(*) AS n FROM ev GROUP BY grp ORDER BY grp LIMIT 4",
	"SELECT bucket, SUM(price) AS tot FROM ev, dm WHERE ev.k = dm.k2 GROUP BY bucket ORDER BY bucket LIMIT 3",
	// Joins.
	"SELECT id, bucket FROM ev, dm WHERE ev.k = dm.k2",
	"SELECT id, bucket FROM ev, dm WHERE ev.k = dm.k2 AND grp = 2 ORDER BY id",
	"SELECT bucket, COUNT(*) AS n, SUM(price) AS tot FROM ev, dm WHERE ev.k = dm.k2 GROUP BY bucket ORDER BY bucket",
	// Three-way join team on a shared key class.
	"SELECT id, bucket, weight FROM ev, dm, xt WHERE ev.k = dm.k2 AND dm.k2 = xt.k3 ORDER BY id, weight LIMIT 500",
	"SELECT bucket, SUM(weight) AS w FROM ev, dm, xt WHERE ev.k = dm.k2 AND dm.k2 = xt.k3 GROUP BY bucket ORDER BY w DESC",
	// N-way chain on distinct key classes (no join team possible): the
	// planner must order the binary joins off catalogue estimates.
	"SELECT id, weight FROM ev, dm, xt WHERE ev.k = dm.k2 AND xt.k3 = dm.bucket ORDER BY id, weight LIMIT 400",
	"SELECT bucket, COUNT(*) AS n FROM ev, dm, xt WHERE ev.k = dm.k2 AND xt.k3 = dm.bucket GROUP BY bucket ORDER BY bucket",
	// Explicit JOIN ... ON syntax desugars to the comma form.
	"SELECT id, bucket FROM ev JOIN dm ON ev.k = dm.k2 WHERE grp < 6 ORDER BY id",
	"SELECT id, bucket, weight FROM ev INNER JOIN dm ON ev.k = dm.k2 JOIN xt ON dm.k2 = xt.k3 ORDER BY id, weight LIMIT 200",
	// BETWEEN desugars into a pair of range predicates.
	"SELECT id FROM ev WHERE price BETWEEN 20.0 AND 30.0 ORDER BY id",
	"SELECT id FROM ev WHERE day BETWEEN 10050 AND 10100 AND grp BETWEEN 2 AND 5",
	// HAVING: post-aggregation filters resolved by alias or by the
	// rendered aggregate expression.
	"SELECT grp, COUNT(*) AS n FROM ev GROUP BY grp HAVING n > 300 ORDER BY grp",
	"SELECT tag, SUM(price) AS total FROM ev GROUP BY tag HAVING SUM(price) > 1000.0 ORDER BY total DESC",
	"SELECT grp, COUNT(*) AS n FROM ev GROUP BY grp HAVING n BETWEEN 100 AND 400 ORDER BY grp",
	"SELECT bucket, COUNT(*) AS n FROM ev, dm WHERE ev.k = dm.k2 GROUP BY bucket HAVING n >= 10 AND bucket < 9 ORDER BY bucket",
	// ORDER BY an aggregate expression rather than its alias.
	"SELECT tag, SUM(price) AS total FROM ev GROUP BY tag ORDER BY SUM(price) DESC",
	// Group-less aggregation behind range predicates (the Q6 shape).
	"SELECT SUM(price * price) AS s FROM ev WHERE day >= 10010 AND day < 10200 AND price BETWEEN 10.0 AND 70.0",
	// Integer arithmetic in projections.
	"SELECT id, grp + 1 AS g1, id - grp AS d FROM ev WHERE id < 500 ORDER BY id",
	// A join whose inputs' key domains are disjoint: an empty fine
	// value directory, no rows, no error.
	"SELECT da.v, db.w FROM da, db WHERE da.ka = db.kb",
	"SELECT da.ka, COUNT(*) AS n, SUM(db.w) AS s FROM da, db WHERE da.ka = db.kb GROUP BY da.ka",
	// A float join key: -0 joins +0.
	"SELECT fv, gw FROM fa, fb WHERE fa.fk = fb.gk",
	"SELECT COUNT(*) AS n, SUM(gw) AS s FROM fa, fb WHERE fa.fk = fb.gk AND fv < 300",
	// A float grouping column: -0 and +0 are one group, alone and beside
	// a second column.
	"SELECT fk, COUNT(*) AS n, SUM(fv) AS s FROM fa GROUP BY fk ORDER BY fk",
	"SELECT fk, gk, COUNT(*) AS n, MIN(fv) AS lo FROM fa, fb WHERE fa.fv = fb.gw GROUP BY fk, gk ORDER BY fk, gk",
	// COUNT is the one aggregate a CHAR argument may feed.
	"SELECT grp, COUNT(tag) AS n FROM ev GROUP BY grp ORDER BY grp",
	// The Q1 shape: CHAR and Int grouping columns through the value
	// directories, expression aggregate arguments, a range filter.
	"SELECT tag, grp, SUM(amt) AS s, SUM(amt * (1 + id)) AS e, AVG(amt) AS a, COUNT(*) AS n FROM ev WHERE day <= 10250 GROUP BY tag, grp ORDER BY tag, grp",
	// LIMIT 0 over an aggregation and over a scan: no rows, no work.
	"SELECT grp, COUNT(*) AS n FROM ev GROUP BY grp ORDER BY grp LIMIT 0",
	"SELECT id FROM ev WHERE grp = 1 LIMIT 0",
	// CHAR comparisons beyond equality (bound in place when lifted), one
	// of them against a value wider than the column.
	"SELECT tag, COUNT(*) AS n FROM ev WHERE tag >= 'bb' AND tag < 'dd' GROUP BY tag ORDER BY tag",
	"SELECT COUNT(*) AS n FROM ev WHERE tag < 'ccccc'",
}

// The aggregate matrix the shared accumulator (core.AggProgram) carries
// for every engine path: each function over an Int, a Float and a Date
// argument, group-less and under one and two grouping columns, on a base
// table and as the tail of a join (grouping columns from both sides), and
// once more over an empty selection.
func init() {
	for _, from := range []struct{ tables, and, g1, g2 string }{
		{"ev", " WHERE ", "grp", "grp, tag"},
		{"ev, dm WHERE ev.k = dm.k2", " AND ", "bucket", "bucket, tag"},
	} {
		for _, groups := range []string{"", from.g1, from.g2} {
			sel, tail := "SELECT ", ""
			if groups != "" {
				sel, tail = "SELECT "+groups+", ", " GROUP BY "+groups
			}
			for _, arg := range []string{"id", "amt", "day"} {
				corpus = append(corpus, fmt.Sprintf(
					"%sSUM(%[2]s), AVG(%[2]s), MIN(%[2]s), MAX(%[2]s), COUNT(%[2]s), COUNT(*) FROM %s%s",
					sel, arg, from.tables, tail))
			}
			corpus = append(corpus, sel+
				"SUM(id), AVG(amt), MIN(day), MAX(amt), COUNT(day), COUNT(*) FROM "+
				from.tables+from.and+"id < 0"+tail)
		}
	}
}

// rejected holds statements plan.Build must refuse whatever engine would
// have run them: the accumulators have integer and float lanes only.
var rejected = []string{
	"SELECT grp, MIN(tag), MAX(tag) FROM ev GROUP BY grp",
	"SELECT SUM(tag) FROM ev",
	"SELECT bucket, AVG(tag) FROM ev, dm WHERE ev.k = dm.k2 GROUP BY bucket",
}

// canonical renders a result as a sorted multiset of row strings.
func canonical(t *storage.Table, ordered bool) []string {
	s := t.Schema()
	var rows []string
	t.Scan(func(tp []byte) bool {
		var parts []string
		for i := 0; i < s.NumColumns(); i++ {
			d := s.GetDatum(tp, i)
			if d.Kind == types.Float {
				parts = append(parts, fmt.Sprintf("%.6f", d.F))
			} else {
				parts = append(parts, d.String())
			}
		}
		rows = append(rows, strings.Join(parts, "|"))
		return true
	})
	if !ordered {
		sort.Strings(rows)
	}
	return rows
}

func runCorpus(t *testing.T, cat *catalog.Catalog, opts plan.Options) {
	t.Helper()
	for _, q := range rejected {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		_, err = plan.BuildWithOptions(stmt, cat, opts)
		if err == nil || !strings.Contains(err.Error(), "over CHAR argument tag") {
			t.Errorf("plan %q: want a CHAR-argument plan error, got %v", q, err)
		}
	}
	runQueries(t, cat, opts, corpus, engines(), 0)
}

// runQueries plans each statement and requires every engine in engs, and
// the -O2 generator over the statement's auto-parameterised shape, to
// return the first engine's rows. floatTol 0 compares the rendered rows
// exactly, as the corpus always has; the TPC-H statements pass 1e-9, the
// relative float tolerance the yardstick applies to them (their sums are
// not order-exact, and the fused scan folds them chunk by chunk).
func runQueries(t *testing.T, cat *catalog.Catalog, opts plan.Options, stmts []string, engs []plan.Executor, floatTol float64) {
	t.Helper()
	for _, q := range stmts {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		p, err := plan.BuildWithOptions(stmt, cat, opts)
		if err != nil {
			t.Fatalf("plan %q: %v", q, err)
		}
		ordered := p.Sort != nil
		var ref []string
		var refOut *storage.Table
		var refName string
		for _, e := range append(engs[:len(engs):len(engs)], shapedEngine{cat, opts, q}) {
			out, err := e.Execute(p)
			if err != nil {
				t.Fatalf("%s: %q: %v", e.Name(), q, err)
			}
			got := canonical(out, ordered)
			if refOut == nil { // the first engine's rows, an empty set included
				ref, refOut, refName = got, out, e.Name()
				continue
			}
			if len(got) != len(ref) {
				t.Errorf("%q: %s returned %d rows, %s returned %d",
					q, e.Name(), len(got), refName, len(ref))
				continue
			}
			for i := range ref {
				if got[i] != ref[i] && !(floatTol > 0 && ordered && closeRow(refOut, out, i, floatTol)) {
					t.Errorf("%q: row %d differs between %s and %s:\n  %s\n  %s",
						q, i, refName, e.Name(), ref[i], got[i])
					break
				}
			}
		}
	}
}

// closeRow compares row i of two results cell by cell: floats to tol
// relative, everything else exactly.
func closeRow(a, b *storage.Table, i int, tol float64) bool {
	sa, sb := a.Schema(), b.Schema()
	ta, tb := a.Tuple(i), b.Tuple(i)
	for c := 0; c < sa.NumColumns(); c++ {
		x, y := sa.GetDatum(ta, c), sb.GetDatum(tb, c)
		if x.Kind != types.Float {
			if types.Compare(x, y) != 0 {
				return false
			}
		} else if math.Abs(x.F-y.F) > tol*math.Max(math.Abs(x.F), math.Abs(y.F)) {
			return false
		}
	}
	return true
}

func TestAllEnginesAgreeDefaultPlans(t *testing.T) {
	cat := fixture(7, 5000, 200, 800)
	runCorpus(t, cat, plan.DefaultOptions())
}

func TestAllEnginesAgreeForcedMerge(t *testing.T) {
	cat := fixture(8, 3000, 150, 500)
	opts := plan.DefaultOptions()
	alg := plan.MergeJoin
	opts.ForceJoinAlg = &alg
	runCorpus(t, cat, opts)
}

func TestAllEnginesAgreeForcedHybrid(t *testing.T) {
	cat := fixture(9, 3000, 150, 500)
	opts := plan.DefaultOptions()
	alg := plan.HybridJoin
	opts.ForceJoinAlg = &alg
	runCorpus(t, cat, opts)
}

func TestAllEnginesAgreeForcedAggAlgorithms(t *testing.T) {
	cat := fixture(10, 4000, 100, 200)
	for _, alg := range []plan.AggAlgorithm{plan.SortAggregation, plan.HybridAggregation, plan.MapAggregation} {
		opts := plan.DefaultOptions()
		opts.ForceAggAlg = &alg
		runCorpus(t, cat, opts)
	}
}

func TestAllEnginesAgreeNoTeams(t *testing.T) {
	cat := fixture(11, 3000, 120, 400)
	opts := plan.DefaultOptions()
	opts.EnableJoinTeams = false
	runCorpus(t, cat, opts)
}

// TestAllEnginesAgreeNoTeamsForcedMerge chains the shared-key joins as
// binary merge joins: the second one's chain-fed input arrives in key
// order from the first and is not sorted again.
func TestAllEnginesAgreeNoTeamsForcedMerge(t *testing.T) {
	cat := fixture(16, 3000, 120, 400)
	opts := plan.DefaultOptions()
	opts.EnableJoinTeams = false
	merge := plan.MergeJoin
	opts.ForceJoinAlg = &merge
	runCorpus(t, cat, opts)
}

func TestAllEnginesAgreeRandomisedQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("randomised differential testing skipped in -short mode")
	}
	for seed := int64(20); seed < 26; seed++ {
		cat := fixture(seed, 1000+int(seed)*137, 50+int(seed), 100)
		runCorpus(t, cat, plan.DefaultOptions())
	}
}

// plannerVariants are the planner settings the census runs the corpus
// under: the defaults, each join and aggregation algorithm forced, join
// teams off, and teams off with merge join forced.
func plannerVariants() map[string]plan.Options {
	out := map[string]plan.Options{"default": plan.DefaultOptions()}
	for _, alg := range []plan.JoinAlgorithm{plan.MergeJoin, plan.HybridJoin, plan.FinePartitionJoin} {
		opts := plan.DefaultOptions()
		a := alg
		opts.ForceJoinAlg = &a
		out["join="+alg.String()] = opts
	}
	for _, alg := range []plan.AggAlgorithm{plan.SortAggregation, plan.HybridAggregation, plan.MapAggregation} {
		opts := plan.DefaultOptions()
		a := alg
		opts.ForceAggAlg = &a
		out["agg="+alg.String()] = opts
	}
	noTeams := plan.DefaultOptions()
	noTeams.EnableJoinTeams = false
	out["teams=off"] = noTeams
	merge := plan.MergeJoin
	noTeams.ForceJoinAlg = &merge
	out["teams=off,join=merge"] = noTeams
	return out
}

// TestFusionCensus requires -O2 to compile every corpus statement to a
// fused pipeline under every planner variant: there is no general-walk
// fallback to land on.
func TestFusionCensus(t *testing.T) {
	cat := fixture(12, 3000, 150, 500)
	for name, opts := range plannerVariants() {
		for _, q := range corpus {
			stmt, err := sql.Parse(q)
			if err != nil {
				t.Fatalf("parse %q: %v", q, err)
			}
			p, err := plan.BuildWithOptions(stmt, cat, opts)
			if err != nil {
				t.Fatalf("%s: plan %q: %v", name, q, err)
			}
			cq, err := codegen.Generate(p, codegen.OptO2)
			if err != nil {
				t.Errorf("%s: %q: %v", name, q, err)
			} else if !cq.Fused {
				t.Errorf("%s: %q: not fused", name, q)
			}
		}
	}
}
