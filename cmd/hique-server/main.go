// Command hique-server serves a HIQUE database over HTTP/JSON: the
// network front end of the query-serving subsystem (plan cache +
// concurrent sessions + admission control), optionally durable (WAL +
// checkpoints + replay-on-open).
//
// Usage:
//
//	hique-server                          # empty in-memory database on :8080
//	hique-server -tpch 0.01               # in-memory TPC-H at the given scale
//	hique-server -data ./data             # durable: WAL + checkpoints + recovery
//	hique-server -data ./data -tpch 0.01  # seed TPC-H on first start only
//	hique-server -data ./data -fsync interval -fsync-interval 20ms
//	hique-server -dir ./data              # open tables written by hique-gen
//	hique-server -workers 16 -cache 512   # tune admission + plan cache
//	hique-server -pprof                   # expose /debug/pprof/ endpoints
//	hique-server -pprof -mutexprofile 100 -blockprofile 10000
//	                                      # + lock-contention / blocking profiles
//	hique-server -slow-query 50ms -slow-query-log slow.jsonl
//
// Endpoints:
//
//	POST /query     {"sql": "SELECT ... WHERE id = ?", "params": [42]}
//	                -> {"columns","rows","elapsed_us","session"};
//	                parameter coercion failures return 400.
//	                DML goes through the same endpoint: INSERT INTO t
//	                VALUES (...), (...) / DELETE FROM / UPDATE ... SET,
//	                parameterizable, answering with
//	                {"rows_affected","elapsed_us","session"}; a whole
//	                statement applies under one writer-lock acquisition
//	                and, with -data, is on stable storage before it is
//	                acknowledged (per the -fsync policy).
//	                Engine panics are contained per statement (422).
//	                "EXPLAIN ANALYZE SELECT ..." runs the statement with
//	                per-stage tracing and answers with the stage table.
//	GET  /healthz   load-balancer probe (no pool slot): 503 "recovering"
//	                until WAL replay finishes, 503 "draining" after a
//	                shutdown signal, 200 otherwise
//	GET  /metrics   Prometheus text exposition (no pool slot)
//	GET  /stats     serving + plan-cache + arena + durability counters
//	GET  /tables    catalogued tables with schemata
//	GET  /sessions  live client sessions
//
// On SIGTERM/SIGINT the server stops admitting statements (503), drains
// in-flight ones, writes a final checkpoint, and exits 0.
//
// Clients may pass the X-Hique-Session header to accumulate per-session
// statistics; the server mints an ID for requests without one.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"hique"
	"hique/internal/server"
	"hique/internal/storage"
	"hique/internal/tpch"
	"hique/internal/wal"
)

// swapHandler lets the listener come up before recovery completes: it
// serves a "recovering" stub until the real routing table is stored.
// The box keeps atomic.Value's concrete type constant across swaps.
type handlerBox struct{ h http.Handler }

type swapHandler struct{ v atomic.Value }

func (s *swapHandler) Store(h http.Handler) { s.v.Store(handlerBox{h}) }
func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.v.Load().(handlerBox).h.ServeHTTP(w, r)
}

// recoveringHandler answers every request 503 while WAL replay runs, so
// probes see the process as alive-but-not-ready instead of refused.
func recoveringHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"recovering"}`)
	})
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("dir", "", "open tables from this directory (read-only snapshot, no durability)")
	dataDir := flag.String("data", "", "durable data directory (WAL + checkpoints + replay-on-open)")
	fsyncMode := flag.String("fsync", "always", "WAL fsync policy with -data: always, interval, off")
	fsyncIvl := flag.Duration("fsync-interval", 50*time.Millisecond, "fsync cadence for -fsync interval")
	ckptIvl := flag.Duration("checkpoint-interval", time.Minute, "background checkpoint cadence with -data (0 = shutdown only)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for draining in-flight statements")
	tpchSF := flag.Float64("tpch", 0, "load a TPC-H catalogue at this scale factor (with -data: first start only)")
	workers := flag.Int("workers", 8, "maximum concurrently executing queries")
	queueWait := flag.Duration("queue-wait", 100*time.Millisecond, "admission wait before 503")
	cacheSize := flag.Int("cache", 256, "plan cache capacity in entries (0 disables)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default)")
	mutexFrac := flag.Int("mutexprofile", 0, "mutex profile sampling fraction (runtime.SetMutexProfileFraction; 0 disables)")
	blockRate := flag.Int("blockprofile", 0, "block profile sampling rate in ns (runtime.SetBlockProfileRate; 0 disables)")
	parallelism := flag.Int("parallelism", 0, "worker target for morsel-driven parallel fused execution (0 = GOMAXPROCS, 1 = serial)")
	slowQuery := flag.Duration("slow-query", 0, "log statements slower than this threshold (0 disables)")
	slowLog := flag.String("slow-query-log", "", "slow-query log file (JSON lines; default stderr)")
	flag.Parse()

	if *dir != "" && *dataDir != "" {
		fatal(fmt.Errorf("-dir and -data are mutually exclusive: -dir loads a table snapshot, -data opens a durable database"))
	}
	var opts []hique.Option
	if *cacheSize > 0 {
		opts = append(opts, hique.WithPlanCache(*cacheSize))
	}
	if *parallelism != 0 {
		opts = append(opts, hique.WithParallelism(*parallelism))
	}
	seedTPCH := *tpchSF > 0
	if seedTPCH && *dataDir != "" && hique.DirInitialized(*dataDir) {
		fmt.Printf("hique-server: %s already initialized; ignoring -tpch seed\n", *dataDir)
		seedTPCH = false
	}
	if seedTPCH {
		opts = append(opts, hique.WithCatalog(tpch.Generate(tpch.Config{ScaleFactor: *tpchSF, Seed: 42})))
	}

	// Bring the listener up before recovery so orchestrators see the
	// process alive (503 "recovering") while the WAL replays.
	root := &swapHandler{}
	root.Store(recoveringHandler())
	httpSrv := &http.Server{Addr: *addr, Handler: root, ReadHeaderTimeout: 10 * time.Second}
	listenErr := make(chan error, 1)
	go func() { listenErr <- httpSrv.ListenAndServe() }()

	var db *hique.DB
	if *dataDir != "" {
		mode, ok := wal.ParsePolicy(*fsyncMode)
		if !ok {
			fatal(fmt.Errorf("unknown -fsync policy %q (want always, interval, or off)", *fsyncMode))
		}
		dOpts := append(opts,
			hique.WithFsync(mode),
			hique.WithFsyncInterval(*fsyncIvl),
			hique.WithCheckpointInterval(*ckptIvl))
		start := time.Now()
		var err error
		if db, err = hique.OpenDurable(*dataDir, dOpts...); err != nil {
			fatal(err)
		}
		rs := db.RecoveryStats()
		fmt.Printf("hique-server: recovered %s in %s (snapshot lsn %d, %d wal records replayed, %d skipped) fsync=%s\n",
			*dataDir, time.Since(start).Round(time.Millisecond), rs.SnapshotLSN, rs.ReplayedRecords, rs.ReplayErrors, mode)
	} else {
		db = hique.Open(opts...)
	}

	if *dir != "" {
		mgr, err := storage.NewManager(*dir)
		if err != nil {
			fatal(err)
		}
		names, err := mgr.List()
		if err != nil {
			fatal(err)
		}
		for _, n := range names {
			t, err := mgr.Load(n)
			if err != nil {
				fatal(err)
			}
			db.Catalog().Register(t)
		}
	}

	for _, n := range db.Tables() {
		rows, _ := db.RowCount(n)
		fmt.Printf("table %-12s %9d rows\n", n, rows)
	}
	fmt.Printf("hique-server: engine=%s workers=%d cache=%d listening on %s\n",
		db.EngineName(), *workers, *cacheSize, *addr)
	cfg := server.Config{Workers: *workers, QueueWait: *queueWait, SlowQueryThreshold: *slowQuery}
	if *slowLog != "" {
		f, err := os.OpenFile(*slowLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		cfg.SlowQueryLog = f
	}
	if *slowQuery > 0 {
		fmt.Printf("hique-server: slow-query log enabled, threshold %s\n", *slowQuery)
	}
	if *mutexFrac > 0 {
		// Lock-contention profiling for /debug/pprof/mutex: sampled, so a
		// small fraction is safe to leave on in production.
		runtime.SetMutexProfileFraction(*mutexFrac)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}
	srv := server.New(db, cfg)
	handler := srv.Handler()
	if *pprofOn {
		// Production-shaped profiling without a rebuild: CPU/heap/alloc
		// profiles of the serving path behind an explicit opt-in flag.
		// The profile endpoints bypass the admission pool deliberately —
		// an overloaded server is exactly when a profile is wanted.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		fmt.Println("hique-server: pprof enabled at /debug/pprof/")
	}
	root.Store(handler)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-listenErr:
		fatal(err)
	case s := <-sig:
		fmt.Printf("hique-server: %s; draining (budget %s)\n", s, *drainTimeout)
	}

	// Graceful shutdown: stop admissions (new statements 503, health
	// reports draining), let in-flight statements finish, write the
	// final checkpoint, exit 0.
	srv.BeginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "hique-server: http shutdown: %v\n", err)
	}
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "hique-server: drain: %v\n", err)
	}
	if err := db.Close(); err != nil {
		fatal(fmt.Errorf("final checkpoint: %w", err))
	}
	fmt.Println("hique-server: drained and checkpointed, bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
