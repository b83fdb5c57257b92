package codegen

import (
	"testing"

	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/tpch"
)

// chainQuery joins fact→dim and fact→ext on distinct key classes, so the
// planner emits two binary joins instead of one join team.
const chainQuery = "SELECT f.id, x.w FROM fact f, dim d, ext x WHERE f.grp = d.id AND x.id = f.id ORDER BY f.id"

// TestFusedChainSelection pins which N-way shapes the chained pipeline
// claims and which it declines to the general walk.
func TestFusedChainSelection(t *testing.T) {
	cat := fusedJoinCatalog(t)
	fused := []string{
		chainQuery,
		"SELECT d.label, SUM(x.w) AS s FROM fact f, dim d, ext x WHERE f.grp = d.id AND x.id = f.id GROUP BY d.label ORDER BY d.label",
		"SELECT COUNT(*) AS n FROM fact f, dim d, ext x WHERE f.grp = d.id AND x.id = f.id",
		// Parameterized: the prefix binds through the pooled scratch, the
		// final pipeline reads the bind vector (CHAR values included).
		"SELECT f.id, x.w FROM fact f, dim d, ext x WHERE f.grp = d.id AND x.id = f.id AND f.price > ?",
		"SELECT f.id, x.w FROM fact f, dim d, ext x WHERE f.grp = d.id AND x.id = f.id AND d.label = ?",
		// HAVING filters the emitted groups in the shared result tail.
		"SELECT d.label, COUNT(*) AS n FROM fact f, dim d, ext x WHERE f.grp = d.id AND x.id = f.id GROUP BY d.label HAVING n > 1",
	}
	for _, q := range fused {
		p := buildPlan(t, cat, q)
		if len(p.Joins) < 2 {
			t.Fatalf("%q planned %d join(s); the chain test needs at least 2", q, len(p.Joins))
		}
		if newFusedChain(p) == nil {
			t.Errorf("fused chain declined %q", q)
		}
	}
	declined := []string{
		// A join team: one descriptor with three inputs, not a chain.
		"SELECT f.id FROM fact f, dim d, ext x WHERE f.grp = d.id AND d.id = x.id",
	}
	for _, q := range declined {
		p := buildPlan(t, cat, q)
		if newFusedChain(p) != nil {
			t.Errorf("fused chain accepted %q", q)
		}
	}
}

// TestFusedChainMatchesGeneralWalk runs the chain pipeline against the
// general walk (SetFusion(false)) and requires byte-identical rows.
func TestFusedChainMatchesGeneralWalk(t *testing.T) {
	cat := fusedJoinCatalog(t)
	p := buildPlan(t, cat, chainQuery)
	if newFusedChain(p) == nil {
		t.Fatal("plan unexpectedly ineligible for the chain pipeline")
	}
	q, err := Generate(p, OptO2)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Fused {
		t.Fatal("Generate did not select the chain pipeline")
	}
	want, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	defer want.Release()

	SetFusion(false)
	defer SetFusion(true)
	gq, err := Generate(p, OptO2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := gq.Run()
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()

	if want.NumRows() != got.NumRows() {
		t.Fatalf("chain %d rows, general %d", want.NumRows(), got.NumRows())
	}
	for r := 0; r < want.NumRows(); r++ {
		if string(want.Tuple(r)) != string(got.Tuple(r)) {
			t.Fatalf("row %d: chain %x, general %x", r, want.Tuple(r), got.Tuple(r))
		}
	}
}

// TestFusedChainClaimsTPCHJoins proves the chained pipeline actually
// serves Q3's three-way and Q10's four-way join at -O2 — without this
// the golden differential test could pass vacuously through the general
// fallback.
func TestFusedChainClaimsTPCHJoins(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.005, Seed: 42})
	for _, n := range []int{3, 10} {
		text, err := tpch.Query(n)
		if err != nil {
			t.Fatal(err)
		}
		stmt, err := sql.Parse(text)
		if err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		p, err := plan.Build(stmt, cat)
		if err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		if len(p.Joins) < 2 {
			t.Fatalf("Q%d planned %d join(s)", n, len(p.Joins))
		}
		q, err := Generate(p, OptO2)
		if err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		if !q.Fused {
			t.Errorf("Q%d did not compile to the chained fused pipeline", n)
		}
	}
}
