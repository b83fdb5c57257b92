package enginetest

import (
	"fmt"
	"math/rand"
	"testing"

	"hique/internal/catalog"
	"hique/internal/core"
	"hique/internal/morsel"
	"hique/internal/plan"
	"hique/internal/storage"
	"hique/internal/types"
)

// keyDomains builds join inputs whose key domains relate to the large
// side's in each way the fused join's key filter tells apart:
//
//	kl(lk INT, lb INT, lv FLOAT)  lk in [0, 4000), lb in [0, 3000); three scan morsels
//	kp(pk INT, pv INT)            pk in [2000, 6000): half of lk's domain
//	kx(xk INT, xv INT)            xk in [3000, 5000): a quarter of it, half of pk's
//	kd(dk INT, dv INT)            dk in [10000, 14000): disjoint from lk's
//	ke(ek INT, ew INT)            empty
//	kw(wk INT, wv INT)            wk in [0, 4000) and ±2^40: a span past the filter's cap
//	kb(bk INT, bv INT)            bk in [1000, 2500): lb's partner in the chains
//
// Every key table holds more distinct keys than fine partitioning takes,
// so the planner's own choice filters too; lv is in eighths, so sums are
// exact in any order.
func keyDomains(seed int64) *catalog.Catalog {
	rng := rand.New(rand.NewSource(seed))
	cat := catalog.New()
	kl := storage.NewTable("kl", types.NewSchema(
		types.Col("lk", types.Int), types.Col("lb", types.Int), types.Col("lv", types.Float)))
	for i := 0; i < 2*morsel.Rows+500; i++ {
		kl.AppendRow(types.IntDatum(rng.Int63n(4000)), types.IntDatum(rng.Int63n(3000)),
			types.FloatDatum(float64(i%1013)/8))
	}
	cat.Register(kl)
	keys := func(name, k, v string, n int, key func(i int) int64) {
		t := storage.NewTable(name, types.NewSchema(types.Col(k, types.Int), types.Col(v, types.Int)))
		for i := 0; i < n; i++ {
			t.AppendRow(types.IntDatum(key(i)), types.IntDatum(int64(i%97)))
		}
		cat.Register(t)
	}
	keys("kp", "pk", "pv", 3000, func(int) int64 { return 2000 + rng.Int63n(4000) })
	keys("kx", "xk", "xv", 3000, func(int) int64 { return 3000 + rng.Int63n(2000) })
	keys("kd", "dk", "dv", 3000, func(int) int64 { return 10000 + rng.Int63n(4000) })
	keys("ke", "ek", "ew", 0, nil)
	keys("kw", "wk", "wv", 3000, func(i int) int64 {
		switch i {
		case 0:
			return -1 << 40
		case 1:
			return 1 << 40
		}
		return rng.Int63n(4000)
	})
	keys("kb", "bk", "bv", 3000, func(int) int64 { return 1000 + rng.Int63n(1500) })
	return cat
}

// keyDomainStatements join kl with every domain: two-way joins (rows,
// aggregates, a predicate on the side staged first), three-way chains
// whose second join is chain-fed (one through an empty intermediate), and
// three-input join teams on one key class.
var keyDomainStatements = []string{
	"SELECT lk, pv FROM kl, kp WHERE lk = pk ORDER BY lk, pv",
	"SELECT pv, COUNT(*) AS n, SUM(lv) AS s FROM kl, kp WHERE lk = pk AND lb < 1500 GROUP BY pv ORDER BY pv",
	"SELECT lk, lv, pv FROM kl, kp WHERE lk = pk AND pv < 9 ORDER BY lk, lv, pv",
	"SELECT lk, xv FROM kl, kx WHERE lk = xk AND lb >= 2000 ORDER BY lk, xv",
	"SELECT lk, dv FROM kl, kd WHERE lk = dk",
	"SELECT COUNT(*) AS n, SUM(lv) AS s FROM kl, kd WHERE lk = dk",
	"SELECT lk, ew FROM kl, ke WHERE lk = ek",
	"SELECT COUNT(*) AS n FROM kl, ke WHERE lk = ek",
	"SELECT lk, wv FROM kl, kw WHERE lk = wk AND lb < 300 ORDER BY lk, wv",
	"SELECT wv, COUNT(*) AS n FROM kl, kw WHERE lk = wk GROUP BY wv ORDER BY wv",
	"SELECT lk, pv, bv FROM kl, kp, kb WHERE lk = pk AND lb = bk AND pv < 40 ORDER BY lk, pv, bv",
	"SELECT bv, COUNT(*) AS n, SUM(lv) AS s FROM kl, kp, kb WHERE lk = pk AND lb = bk GROUP BY bv ORDER BY bv",
	"SELECT lk, dv, bv FROM kl, kd, kb WHERE lk = dk AND lb = bk",
	"SELECT lk, pv, xv FROM kl, kp, kx WHERE lk = pk AND pk = xk AND xv < 30 ORDER BY lk, pv, xv",
	"SELECT xv, COUNT(*) AS n, SUM(lv) AS s FROM kl, kp, kx WHERE lk = pk AND pk = xk GROUP BY xv ORDER BY xv",
	"SELECT COUNT(*) AS n FROM kl, kp, kd WHERE lk = pk AND pk = dk",
}

// TestJoinKeyFilterAgrees runs the key-domain corpus under the planner's
// own algorithms and each one forced, at workers {1, 2, 3, 8}: every
// engine — the walk, the iterators and the column store, which filter no
// keys, and the fused pipeline with literals and as DB.Query shapes it —
// must return exactly the same rows, and the fused pipeline the serial
// rows in the serial order at every worker count. The fused runs must
// really drop keys.
func TestJoinKeyFilterAgrees(t *testing.T) {
	lowThreshold(t)
	cat := keyDomains(41)
	before := core.DroppedKeys()
	merge, hybrid, fine := plan.MergeJoin, plan.HybridJoin, plan.FinePartitionJoin
	for _, alg := range []*plan.JoinAlgorithm{nil, &merge, &hybrid, &fine} {
		name := "planner"
		if alg != nil {
			name = alg.String()
		}
		for _, w := range parallelWorkerCounts {
			t.Run(fmt.Sprintf("%s/workers=%d", name, w), func(t *testing.T) {
				opts := plan.DefaultOptions()
				opts.Parallelism = w
				opts.ForceJoinAlg = alg
				runQueries(t, cat, opts, keyDomainStatements, engines(), 0)
			})
		}
	}
	rowOrderMatchesSerial(t, cat, keyDomainStatements)
	if core.DroppedKeys() == before {
		t.Fatal("no fused join dropped a key")
	}
}
