package hique

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"hique/internal/plan"
	"hique/internal/sql"
)

// Regression tests for join keys that are equal as values but not as
// bytes. A CHAR(4) key and a CHAR(8) one used to compare only up to the
// narrower width, so '0001' matched '0001x', and to hash with their zero
// padding, so equal values routed to different hybrid partitions. The
// column store keyed a float join on an empty integer column and joined
// nothing. Every plan must return what the generic iterators return.

// joinPlans are the plans each statement runs under: the default, and
// each join algorithm forced; hybrid with a small L2 so the inputs split
// into several partitions.
func joinPlans() map[string]plan.Options {
	out := map[string]plan.Options{"default": plan.DefaultOptions()}
	for _, alg := range []plan.JoinAlgorithm{plan.MergeJoin, plan.HybridJoin, plan.FinePartitionJoin} {
		opts := plan.DefaultOptions()
		a := alg
		opts.ForceJoinAlg = &a
		if alg == plan.HybridJoin {
			opts.L2CacheBytes = 4096
		}
		out[alg.String()] = opts
	}
	return out
}

// checkJoinAgrees runs q on every engine under opts and requires each to
// return the generic iterators' rows. A hybrid plan must partition.
func checkJoinAgrees(t *testing.T, db *DB, q string, opts plan.Options) {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.BuildWithOptions(stmt, db.cat, opts)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	if j := p.Joins[0]; j.Alg == plan.HybridJoin && j.Inputs[0].Partitions < 2 {
		t.Fatalf("%q: hybrid join over %d partition(s), want several", q, j.Inputs[0].Partitions)
	}
	got := map[string][]string{}
	for _, e := range engineDBs(db.cat) {
		e.opts = opts
		res, err := e.Query(q)
		if err != nil {
			t.Fatalf("%s: %q: %v", e.name, q, err)
		}
		for _, r := range res.Rows {
			got[e.name] = append(got[e.name], fmt.Sprint(r...))
		}
		slices.Sort(got[e.name])
	}
	ref := got["generic-iterators"]
	for name, rows := range got {
		if !slices.Equal(rows, ref) {
			t.Errorf("%q: %s returned %d rows %q, the generic iterators %d %q", q, name, len(rows), rows[:min(len(rows), 3)], len(ref), ref[:min(len(ref), 3)])
		}
	}
}

func TestCharJoinKeysOfDifferentWidthsAgree(t *testing.T) {
	db := Open()
	if err := db.CreateTable("a", Char("ak", 4), Int("av")); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("b", Char("bk", 8), Int("bv")); err != nil {
		t.Fatal(err)
	}
	// b holds each of a's values as it is and with a suffix: a CHAR(4)
	// value equals the first, and is a strict prefix of the second. The
	// key domain is too wide for the default plan to fine-partition.
	for i := 0; i < 4000; i++ {
		k := fmt.Sprintf("%04d", i%2000)
		if err := db.Insert("a", k, i); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			k += "x"
		}
		if err := db.Insert("b", k, i); err != nil {
			t.Fatal(err)
		}
	}
	for name, opts := range joinPlans() {
		t.Run(name, func(t *testing.T) {
			checkJoinAgrees(t, db, "SELECT COUNT(*) AS n FROM a, b WHERE ak = bk", opts)
			checkJoinAgrees(t, db, "SELECT av, bv FROM a, b WHERE ak = bk AND av < 1200", opts)
		})
	}
}

func TestFloatJoinKeyZerosAgree(t *testing.T) {
	db := Open()
	if err := db.CreateTable("fa", Float("fk"), Int("fv")); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("fb", Float("gk"), Int("gv")); err != nil {
		t.Fatal(err)
	}
	// Both zeros on both sides, among values that spread over the
	// partitions.
	for i := 0; i < 3000; i++ {
		fk, gk := float64(i%300), float64(i%450)
		switch i % 10 {
		case 0:
			fk, gk = math.Copysign(0, -1), 0
		case 1:
			fk, gk = 0, math.Copysign(0, -1)
		}
		if err := db.Insert("fa", fk, i); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("fb", gk, i); err != nil {
			t.Fatal(err)
		}
	}
	// A float key has no value directory: forced fine partitioning
	// falls back to the planner's choice.
	for name, opts := range joinPlans() {
		t.Run(name, func(t *testing.T) {
			checkJoinAgrees(t, db, "SELECT COUNT(*) AS n FROM fa, fb WHERE fk = gk", opts)
			checkJoinAgrees(t, db, "SELECT fv, gv FROM fa, fb WHERE fk = gk AND fv < 100", opts)
		})
	}
}
