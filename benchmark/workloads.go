package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"time"

	"hique"
	"hique/internal/catalog"
	"hique/internal/tpch"
)

// opFunc performs one operation of the closed loop — send, wait for the
// reply, check it against the reference — and reports the operation's
// class and whether the reply was correct.
type opFunc func() (class int, ok bool)

// workload is one named set of inputs. Its set-up builds everything the
// measured window needs (data, server, reference answers) from the seed.
type workload struct {
	name  string
	why   string
	setup func(e *env, cfg config) (*instance, error)
}

// instance is a workload after set-up: the client loops to run, the
// process under test to charge CPU and memory to, and the hooks that run
// after the window.
type instance struct {
	classes []string
	clients []opFunc
	target  *target

	// counters scrapes the layer counters (the Prometheus exposition of
	// DB.Metrics in process, GET /metrics over HTTP).
	counters func() (promSamples, error)
	// probe replays sampled statements through the layers (traced run),
	// while everything the window used is still up.
	probe func(tr *tracer, out values) error
	// verify runs the workload's end-of-run assertions, nil when it has
	// none. crash asks for the SIGKILL-and-replay restart instead of the
	// drained one, and reports what recovery cost into out.
	verify func(crash bool, out values) error
	// respRows reports the rows and body bytes the read replies carried
	// (server.resp_bytes_per_row); nil in process.
	respRows func() (rows, bytes int64)
	// writes reports acknowledged write statements and the user bytes
	// they carried; nil on a read-only workload.
	writes func() (stmts, userBytes int64)
	close  func()
}

// target is the process under test: the hique-server subprocess, or the
// benchmark's own process for the in-process workloads, whose generator
// is a bare loop around the DB call.
type target struct {
	pid  int // 0: this process
	peak *rssSampler
}

func (t *target) cpu() (time.Duration, error) {
	if t.pid == 0 {
		return selfCPU(), nil
	}
	return procCPU(t.pid)
}

// beginPeak and peakKB bracket a window: the highest VmRSS sampled
// between them.
func (t *target) beginPeak() {
	pid := t.pid
	if pid == 0 {
		pid = os.Getpid()
	}
	t.peak = startRSSSampler(pid)
}

func (t *target) peakKB() int64 { return t.peak.peakKB() }

var workloads = []workload{
	{
		name:  "tpch_analytic",
		why:   "in-process TPC-H power run (Q1,Q3,Q6,Q10) at SF 0.1, plan cache warm: time is in codegen fused loops, core kernels and morsel; sql/plan/server/wal idle",
		setup: setupTPCH,
	},
	{
		name:  "serve_point_http",
		why:   "hique-server subprocess, 2 keep-alive connections, 9:1 one-row lookups to 50-row ranges, one cached shape each: HTTP, JSON, admission, shape+cache lookup and row encoding dominate; kernels idle",
		setup: setupServePoint,
	},
	{
		name:  "cold_prepare",
		why:   "in-process, 1024 distinct statement shapes cycled against the 256-entry plan cache so every statement misses: parse, plan, generate and compile (Table III) dominate; execution is small",
		setup: setupColdPrepare,
	},
	{
		name:  "serve_mixed_rw_http",
		why:   "durable hique-server (-fsync always), one writing and one reading connection on lineitem: writer lock, WAL group commit and fsync, and version bumps that invalidate the reader's cached plans",
		setup: setupMixedRW,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// dbCounters scrapes an in-process DB the same way GET /metrics does.
func dbCounters(db *hique.DB) func() (promSamples, error) {
	return func() (promSamples, error) {
		var buf bytes.Buffer
		if err := db.Metrics().WritePrometheus(&buf); err != nil {
			return nil, err
		}
		return parseProm(&buf)
	}
}

// tpchCatalog generates TPC-H from internal/tpch with its fixed data seed
// 42 (the seed hique-server -tpch uses), so -seed drives only the
// generated inputs.
func tpchCatalog(sf float64) *catalog.Catalog {
	return tpch.Generate(tpch.Config{ScaleFactor: sf, Seed: 42})
}

const planCacheSize = 256 // hique-server's -cache default

// ---------------------------------------------------------------------
// tpch_analytic
// ---------------------------------------------------------------------

// tpchQueries instantiates the four evaluated TPC-H queries with
// substitution parameters drawn from the seed, within the ranges the
// TPC-H specification gives and chosen so that no draw changes the
// amount of work materially (a run on one seed must be comparable with a
// run on another): Q1's DELTA, Q3's date within March 1995, Q6's
// discount and quantity, Q10's quarter among those wholly before the
// generator's return-flag cutoff.
func tpchQueries(r *rand.Rand) [4]string {
	q1 := fmt.Sprintf(`SELECT l_returnflag, l_linestatus,
  SUM(l_quantity) AS sum_qty,
  SUM(l_extendedprice) AS sum_base_price,
  SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
  SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
  AVG(l_quantity) AS avg_qty,
  AVG(l_extendedprice) AS avg_price,
  AVG(l_discount) AS avg_disc,
  COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= DATE '1998-12-01' - %d
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus`, 60+r.Intn(61))

	d3 := fmt.Sprintf("1995-03-%02d", 1+r.Intn(31))
	q3 := fmt.Sprintf(`SELECT l_orderkey,
  SUM(l_extendedprice * (1 - l_discount)) AS revenue,
  o_orderdate, o_shippriority
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING'
  AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < DATE '%s'
  AND l_shipdate > DATE '%s'
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC, o_orderdate
LIMIT 10`, d3, d3)

	disc := float64(2+r.Intn(8)) / 100
	q6 := fmt.Sprintf(`SELECT SUM(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE '1994-01-01'
  AND l_shipdate < DATE '1995-01-01'
  AND l_discount BETWEEN %.2f AND %.2f
  AND l_quantity < %d`, disc-0.01, disc+0.01, 24+r.Intn(2))

	start := time.Date(1993, time.February, 1, 0, 0, 0, 0, time.UTC).AddDate(0, r.Intn(20), 0)
	q10 := fmt.Sprintf(`SELECT c_custkey, c_name,
  SUM(l_extendedprice * (1 - l_discount)) AS revenue,
  c_acctbal, n_name, c_address, c_phone
FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate >= DATE '%s'
  AND o_orderdate < DATE '%s'
  AND l_returnflag = 'R'
  AND c_nationkey = n_nationkey
GROUP BY c_custkey, c_name, c_acctbal, n_name, c_address, c_phone
ORDER BY revenue DESC
LIMIT 20`, start.Format("2006-01-02"), start.AddDate(0, 3, 0).Format("2006-01-02"))
	return [4]string{q1, q3, q6, q10}
}

var tpchNames = [4]string{"q1", "q3", "q6", "q10"}

func setupTPCH(e *env, cfg config) (*instance, error) {
	sf := 0.1
	if cfg.quick {
		sf = 0.01
	}
	cat := tpchCatalog(sf)
	db := hique.Open(hique.WithCatalog(cat), hique.WithPlanCache(planCacheSize))
	ref := openReference(cat)
	queries := tpchQueries(rand.New(rand.NewSource(cfg.seed)))
	var expected [4][][]any
	for i, q := range queries {
		rows, err := expectRows(ref, q)
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			return nil, fmt.Errorf("tpch_analytic: reference returned no rows for %s", tpchNames[i])
		}
		expected[i] = rows
	}

	var res hique.Result
	powerRun := func() (int, bool) {
		ok := true
		for i, q := range queries {
			if err := db.QueryInto(&res, q); err != nil || !rowsEqual(expected[i], res.Rows, true) {
				ok = false
			}
		}
		return 0, ok
	}
	return &instance{
		classes:  []string{"power"},
		clients:  []opFunc{powerRun},
		target:   &target{},
		counters: dbCounters(db),
		probe: func(tr *tracer, out values) error {
			return probeTPCH(tr, out, cat, db, queries)
		},
		close: func() {},
	}, nil
}

// ---------------------------------------------------------------------
// cold_prepare
// ---------------------------------------------------------------------

const coldShapes = 1024 // 4x the plan cache: a cyclic scan of an LRU never hits

func setupColdPrepare(e *env, cfg config) (*instance, error) {
	n := coldShapes
	if cfg.quick {
		// Still above the cache capacity, so every statement misses.
		n = planCacheSize + 64
	}
	stmts, err := genShapes(cfg.seed, n)
	if err != nil {
		return nil, err
	}
	cat := tpchCatalog(0.01)
	db := hique.Open(hique.WithCatalog(cat), hique.WithPlanCache(planCacheSize))
	ref := openReference(cat)
	expected := make([][][]any, len(stmts))
	for i, st := range stmts {
		if expected[i], err = expectRows(ref, st.text); err != nil {
			return nil, err
		}
	}

	var res hique.Result
	next := 0
	op := func() (int, bool) {
		i := next
		next = (next + 1) % len(stmts)
		if err := db.QueryInto(&res, stmts[i].text); err != nil {
			return 0, false
		}
		return 0, rowsEqual(expected[i], res.Rows, stmts[i].ordered)
	}
	return &instance{
		classes:  []string{"miss"},
		clients:  []opFunc{op},
		target:   &target{},
		counters: dbCounters(db),
		probe: func(tr *tracer, out values) error {
			return probeCold(tr, out, cat, stmts, cfg.probeRequests())
		},
		close: func() {},
	}, nil
}
