package hique

import (
	"errors"

	"hique/internal/core"
	"hique/internal/morsel"
	"hique/internal/obs"
	"hique/internal/plan"
	"hique/internal/plancache"
	"hique/internal/storage"
	"hique/internal/wal"
)

// Statement classes, execution paths, and cache temperatures index into
// dbMetrics.lat. A query's class and path are properties of its compiled
// plan, resolved once at compile time; only the temperature (did this
// execution hit the plan cache?) is decided per query.
const (
	classPoint   = iota // single-table with an index probe
	classRange          // single-table scan/range
	classJoinAgg        // any join or aggregation
	classDML            // INSERT / DELETE / UPDATE
	nClass
)

const (
	pathFused   = iota // fused codegen pipeline (newFused / newFusedJoin)
	pathGeneral        // DML, or an injected executor (the comparator engines)
	nPath
)

const (
	tempCold = iota // compiled (or planned) on this execution
	tempWarm        // served from the plan cache or a prepared handle
	nTemp
)

var (
	classNames = [nClass]string{"point", "range", "join_agg", "dml"}
	pathNames  = [nPath]string{"fused", "general"}
	tempNames  = [nTemp]string{"cold", "warm"}
)

// dbMetrics is a DB's always-on telemetry: latency histograms split by
// class × path × temperature, lock-wait time, and statement/error
// counters, plus scrape-time re-exports of the plan caches, the page
// arena, and the catalogue. Every hot-path handle is resolved at
// registration or plan-compile time — recording is atomic adds only, so
// the warm fused path keeps its allocation and latency budget with
// telemetry enabled.
type dbMetrics struct {
	reg *obs.Registry

	// lat[class][path][temp] is the per-query latency histogram family
	// hique_query_duration_seconds.
	lat [nClass][nPath][nTemp]*obs.Histogram

	// lockWait tracks time spent acquiring table locks on the serving
	// paths (read fast path, DML writer lock).
	lockWait *obs.Histogram

	queries    *obs.Counter // statements started (Query/Exec), incl. failures
	errors     *obs.Counter // statements that returned any error
	bindErrors *obs.Counter // ... of which parameter binding rejected
	panics     *obs.Counter // ... of which were contained engine panics

	// walFsync observes every physical WAL fsync (group commit batches
	// many statement commits into one observation). Registered
	// unconditionally — an in-memory DB just never observes into it —
	// so the durability families are always present in /metrics.
	walFsync *obs.Histogram
}

// newDBMetrics registers every DB-level series. The cache and arena
// re-exports read their owners' counters at scrape time through
// closures, so registration order relative to Open's options does not
// matter (a nil cache reports zeros).
func newDBMetrics(db *DB) *dbMetrics {
	m := &dbMetrics{reg: obs.NewRegistry()}

	const latName = "hique_query_duration_seconds"
	const latHelp = "Query latency by statement class, execution path, and plan-cache temperature."
	for c := 0; c < nClass; c++ {
		for p := 0; p < nPath; p++ {
			for t := 0; t < nTemp; t++ {
				m.lat[c][p][t] = m.reg.Histogram(latName, latHelp,
					obs.Labels("class", classNames[c], "path", pathNames[p], "temp", tempNames[t]))
			}
		}
	}
	m.lockWait = m.reg.Histogram("hique_lock_wait_seconds",
		"Time spent acquiring table locks on the serving paths.", "")
	m.queries = m.reg.Counter("hique_queries_total",
		"SQL statements started (Query and Exec), including failures.", "")
	m.errors = m.reg.Counter("hique_query_errors_total",
		"SQL statements that returned an error.", "")
	m.bindErrors = m.reg.Counter("hique_bind_errors_total",
		"Statements rejected while binding parameter values.", "")
	m.panics = m.reg.Counter("hique_panics_contained_total",
		"Engine panics converted to per-statement errors.", "")

	registerCache := func(which string, get func() *plancache.Cache) {
		stats := func() plancache.Stats {
			if c := get(); c != nil {
				return c.Stats()
			}
			return plancache.Stats{}
		}
		lbl := obs.Labels("cache", which)
		m.reg.CounterFunc("hique_plan_cache_hits_total", "Plan-cache hits.", lbl,
			func() int64 { return int64(stats().Hits) })
		m.reg.CounterFunc("hique_plan_cache_misses_total", "Plan-cache misses.", lbl,
			func() int64 { return int64(stats().Misses) })
		m.reg.CounterFunc("hique_plan_cache_invalidations_total", "Plan-cache entries dropped on catalogue version mismatch.", lbl,
			func() int64 { return int64(stats().Invalidations) })
		m.reg.CounterFunc("hique_plan_cache_evictions_total", "Plan-cache entries dropped by LRU pressure.", lbl,
			func() int64 { return int64(stats().Evictions) })
		m.reg.GaugeFunc("hique_plan_cache_entries", "Plan-cache resident entries.", lbl,
			func() float64 { return float64(stats().Entries) })
	}
	registerCache("read", func() *plancache.Cache { return db.cache })
	registerCache("write", func() *plancache.Cache { return db.writeCache })

	m.reg.GaugeFunc("hique_arena_pages_in_use", "Page-arena frames currently held by live pooled tables.", "",
		func() float64 { inUse, _ := storage.ArenaStats(); return float64(inUse) })
	m.reg.CounterFunc("hique_arena_pages_recycled_total", "Page-arena frames returned for reuse.", "",
		func() int64 { _, recycled := storage.ArenaStats(); return recycled })
	// Morsel-driven parallel execution counters. The underlying counters
	// are process-global (the worker pool machinery is per-DB but the
	// pipelines are compiled per plan), matching the arena re-exports.
	m.reg.CounterFunc("hique_parallel_queries_total", "Query executions that ran at least one morsel-driven parallel phase.", "",
		func() int64 { q, _ := morsel.Stats(); return q })
	m.reg.CounterFunc("hique_morsels_total", "Morsels processed by parallel execution phases.", "",
		func() int64 { _, ms := morsel.Stats(); return ms })
	// Pages a scan, staging pass, map fold or DML victim search skipped
	// because their min/max bounds exclude its predicates; counted once per
	// scan and process-global like the morsel counters.
	m.reg.CounterFunc("hique_scan_pages_skipped_total", "Heap pages page loops skipped on their per-page min/max bounds.", "",
		core.SkippedPages)
	// Tuples a fused join's key filter kept out of a staging scan (their
	// key is absent from the join's first-staged input); counted once per
	// stage, process-global likewise.
	m.reg.CounterFunc("hique_join_keys_dropped_total", "Join-input tuples staging scans dropped because their key is absent from the join's first-staged input.", "",
		core.DroppedKeys)

	m.reg.GaugeFunc("hique_catalog_version", "Catalogue epoch: table registrations and drops (writes and index builds move per-table versions).", "",
		func() float64 { return float64(db.cat.Version()) })
	m.reg.GaugeFunc("hique_tables", "Catalogued tables.", "",
		func() float64 { return float64(len(db.cat.Names())) })

	// Durability re-exports, closure-based like the caches: db.dur is
	// nil on an in-memory DB (all series report zero) and is set after
	// newDBMetrics returns on a durable one, which the scrape-time
	// closures tolerate by re-reading it.
	m.walFsync = m.reg.Histogram("hique_wal_fsync_seconds",
		"WAL fsync latency; one observation per physical fsync (group commit batches statement commits).", "")
	walStats := func() wal.Stats {
		if d := db.dur; d != nil {
			return d.log.StatsSnapshot()
		}
		return wal.Stats{}
	}
	m.reg.CounterFunc("hique_wal_appended_total", "WAL records appended (one per durable mutating statement).", "",
		func() int64 { return walStats().Appended })
	m.reg.CounterFunc("hique_wal_fsyncs_total", "Physical WAL fsyncs.", "",
		func() int64 { return walStats().Fsyncs })
	m.reg.CounterFunc("hique_wal_bytes_total", "WAL bytes appended, including frame headers.", "",
		func() int64 { return walStats().Bytes })
	m.reg.GaugeFunc("hique_wal_last_lsn", "Highest LSN assigned.", "",
		func() float64 { return float64(walStats().LastLSN) })
	m.reg.GaugeFunc("hique_wal_durable_lsn", "Highest LSN known fsynced.", "",
		func() float64 { return float64(walStats().DurableLSN) })
	m.reg.CounterFunc("hique_checkpoints_total", "Checkpoints written (snapshot + WAL truncation).", "",
		func() int64 {
			if d := db.dur; d != nil {
				return d.checkpoints.Load()
			}
			return 0
		})
	m.reg.GaugeFunc("hique_checkpoint_last_lsn", "LSN the newest on-disk snapshot covers.", "",
		func() float64 {
			if d := db.dur; d != nil {
				return float64(d.snapLSN.Load())
			}
			return 0
		})
	m.reg.CounterFunc("hique_recovery_replayed_records", "WAL records replayed by the most recent open.", "",
		func() int64 {
			if d := db.dur; d != nil {
				return d.replayed.Load()
			}
			return 0
		})
	m.reg.CounterFunc("hique_recovery_replay_errors_total", "Replayed records that failed to apply (warned and skipped).", "",
		func() int64 {
			if d := db.dur; d != nil {
				return d.replayErrors.Load()
			}
			return 0
		})
	return m
}

// classifyPlan maps a read plan to its statement class.
func classifyPlan(p *plan.Plan) int {
	if p.Agg != nil || len(p.Joins) > 0 {
		return classJoinAgg
	}
	if p.Final != nil && p.Final.IndexScan != nil {
		return classPoint
	}
	return classRange
}

// latFor resolves the cold/warm histogram pair for a compiled read plan —
// called once at plan-compile time, so per-query recording is a single
// indexed Observe.
func (m *dbMetrics) latFor(p *plan.Plan, fused bool) *[nTemp]*obs.Histogram {
	pi := pathGeneral
	if fused {
		pi = pathFused
	}
	return &m.lat[classifyPlan(p)][pi]
}

// noteQuery is deferred at every statement entry point (registered before
// containPanic so it observes the converted error): it counts the
// statement and classifies its failure, if any.
func (m *dbMetrics) noteQuery(err *error) {
	m.queries.Inc()
	e := *err
	if e == nil {
		return
	}
	m.errors.Inc()
	var be *BindError
	if errors.As(e, &be) {
		m.bindErrors.Inc()
		return
	}
	var pe *PanicError
	if errors.As(e, &pe) {
		m.panics.Inc()
	}
}
