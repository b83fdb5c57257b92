// Package server is HIQUE's query-serving layer: it turns the embedded
// engine into a network service. Three pieces compose it:
//
//   - a bounded worker Pool for admission control (overload returns 503
//     instead of queueing unboundedly),
//   - a Sessions registry tracking per-client query streams, and
//   - an HTTP/JSON front end (POST /query, GET /healthz, GET /stats,
//     GET /metrics, GET /tables, GET /sessions) over a shared *hique.DB.
//
// GET /metrics serves the DB's and the serving layer's telemetry in the
// Prometheus text exposition format; a threshold-gated slow-query log
// emits JSON lines carrying redacted statement shapes (never literals).
// "EXPLAIN ANALYZE <stmt>" through POST /query runs the statement with
// per-stage tracing and answers with the stage table.
//
// POST /query accepts parameterized statements: {"sql": "SELECT ... WHERE
// id = ?", "params": [42]} binds one value per '?' placeholder, so one
// compiled plan in the cache serves the whole query shape. A value that
// cannot be coerced to the compared column's type (or a wrong parameter
// count) is the client's fault and returns 400; statement errors keep
// returning 422. DML statements (INSERT INTO ... VALUES, DELETE FROM,
// UPDATE ... SET, all parameterizable) go through the same endpoint and
// answer with a rows-affected body instead of a row set.
//
// A statement that trips an engine panic (a malformed descriptor
// combination deep in specialised code) is contained: the worker recovers,
// the statement reports 422, and the server keeps serving.
//
// Concurrency safety of the read path comes from hique.DB itself: query
// execution holds per-table reader locks while writers (DML with its
// statistics upkeep, CreateTable, BuildIndex) take the corresponding
// writer lock, so any number of in-flight queries may share a table
// while mutations serialise. The serving layer adds the plan cache on
// top (enable with hique.WithPlanCache), which is what amortises the
// paper's preparation cost (Table III) across a repeated workload.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hique"
	"hique/internal/obs"
	"hique/internal/sql"
)

// Config tunes a Server.
type Config struct {
	// Workers bounds concurrently executing queries (default 8).
	Workers int
	// QueueWait bounds how long an arriving query waits for a worker
	// slot before a 503 (default 100ms; negative rejects immediately).
	QueueWait time.Duration
	// SessionExpiry drops sessions idle longer than this (default 10m).
	SessionExpiry time.Duration
	// SlowQueryThreshold, when positive, logs statements whose execution
	// exceeds it to SlowQueryLog as JSON lines. Logged statements carry
	// the redacted shape (every literal replaced by '?') and bind arity —
	// never raw literal or parameter values.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives the slow-query lines (default os.Stderr).
	SlowQueryLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.QueueWait == 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.SessionExpiry == 0 {
		c.SessionExpiry = 10 * time.Minute
	}
	if c.SlowQueryLog == nil {
		c.SlowQueryLog = os.Stderr
	}
	return c
}

// Server serves a hique.DB over HTTP/JSON.
type Server struct {
	db       *hique.DB
	pool     *Pool
	sessions *Sessions
	started  time.Time

	queries atomic.Uint64
	errors  atomic.Uint64

	// draining flips on BeginShutdown: /healthz answers 503 so load
	// balancers pull the instance while in-flight statements finish.
	draining atomic.Bool

	// reg holds the serving-layer metrics (pool, sessions, request
	// counters); GET /metrics renders it after the DB's own registry.
	reg  *obs.Registry
	slow *obs.Counter

	// slowThreshold gates the slow-query log; slowMu serialises writers
	// to slowLog (one JSON line per slow statement).
	slowThreshold time.Duration
	slowMu        sync.Mutex
	slowLog       io.Writer
}

// New creates a server over db.
func New(db *hique.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		db:            db,
		pool:          NewPool(cfg.Workers, cfg.QueueWait),
		sessions:      NewSessions(cfg.SessionExpiry),
		started:       time.Now(),
		reg:           obs.NewRegistry(),
		slowThreshold: cfg.SlowQueryThreshold,
		slowLog:       cfg.SlowQueryLog,
	}
	s.reg.CounterFunc("hique_server_queries_total", "Statements received on POST /query.", "",
		func() int64 { return int64(s.queries.Load()) })
	s.reg.CounterFunc("hique_server_errors_total", "Statements that answered with an error status.", "",
		func() int64 { return int64(s.errors.Load()) })
	s.slow = s.reg.Counter("hique_server_slow_queries_total",
		"Statements logged as slow (elapsed over the configured threshold).", "")
	s.reg.GaugeFunc("hique_pool_workers", "Worker-pool width (admission bound).", "",
		func() float64 { return float64(s.pool.Workers()) })
	s.reg.GaugeFunc("hique_pool_in_flight", "Pool slots currently executing statements.", "",
		func() float64 { return float64(s.pool.InFlight()) })
	s.reg.GaugeFunc("hique_pool_waiting", "Callers blocked in the admission wait (queue depth).", "",
		func() float64 { return float64(s.pool.Waiting()) })
	s.reg.CounterFunc("hique_pool_admitted_total", "Statements that acquired a pool slot.", "",
		func() int64 { return int64(s.pool.Admitted()) })
	s.reg.CounterFunc("hique_pool_rejected_total", "Statements rejected saturated (503).", "",
		func() int64 { return int64(s.pool.Rejected()) })
	s.reg.GaugeFunc("hique_sessions", "Live client sessions.", "",
		func() float64 { return float64(s.sessions.Len()) })
	return s
}

// Handler returns the HTTP routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /tables", s.handleTables)
	mux.HandleFunc("GET /sessions", s.handleSessions)
	return mux
}

// ListenAndServe serves on addr until the listener fails.
func (s *Server) ListenAndServe(addr string) error {
	srv := &http.Server{Addr: addr, Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	return srv.ListenAndServe()
}

// BeginShutdown starts a graceful drain: new statements are rejected
// with 503 and /healthz reports draining. In-flight statements keep
// their pool slots until they finish — wait for them with Drain.
func (s *Server) BeginShutdown() {
	s.draining.Store(true)
	s.pool.Close()
}

// Drain blocks until every in-flight statement completes, or ctx
// expires. Call BeginShutdown first.
func (s *Server) Drain(ctx context.Context) error { return s.pool.Drain(ctx) }

// queryRequest is the POST /query body. Params supplies one value per
// '?' placeholder in SQL, in order; JSON numbers arrive as float64 and
// are coerced to the compared column's type (integral floats to Int/Date,
// YYYY-MM-DD strings to Date).
type queryRequest struct {
	SQL    string `json:"sql"`
	Params []any  `json:"params"`
}

// queryResponse is the POST /query success body for SELECT statements.
type queryResponse struct {
	Columns   []string `json:"columns"`
	Rows      [][]any  `json:"rows"`
	RowCount  int      `json:"row_count"`
	ElapsedUs int64    `json:"elapsed_us"`
	Session   string   `json:"session"`
}

// execResponse is the POST /query success body for DML statements.
type execResponse struct {
	RowsAffected int    `json:"rows_affected"`
	ElapsedUs    int64  `json:"elapsed_us"`
	Session      string `json:"session"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON answers with v encoded as JSON. It encodes into a pooled
// buffer before writing anything, so a value encoding/json refuses — a
// NaN or an infinity in a result row — answers 422 with the reason,
// counted in hique_server_errors_total, instead of a 200 with an empty
// body.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		s.errors.Add(1)
		status = http.StatusUnprocessableEntity
		buf.Reset()
		_ = json.NewEncoder(buf).Encode(errorResponse{Error: "result is not encodable as JSON: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// bodyPool recycles response buffers up to maxPooledBody bytes; a larger
// result's buffer goes to the collector rather than pinning its size.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// SessionHeader carries the client's session ID; the server mints one
// for requests without it and returns it in both the response body and
// this response header.
const SessionHeader = "X-Hique-Session"

// maxQueryBody bounds the POST /query request body; a statement the
// engine would accept is far below this, and unbounded bodies would
// bypass the admission control the pool provides.
const maxQueryBody = 1 << 20

// resultPool recycles materialised results across requests: QueryInto
// reuses the columns, rows, and flat cell arena of a Reset result, so
// the HTTP path stops boxing every row into a fresh []any. A result
// returns to the pool only after its response has been encoded.
var resultPool = sync.Pool{New: func() any { return new(hique.Result) }}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxQueryBody)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty sql"})
		return
	}

	if rest, ok := hique.StripExplainAnalyze(req.SQL); ok {
		s.handleAnalyze(w, r, rest, req.Params)
		return
	}
	if sql.IsDML(req.SQL) {
		s.handleExec(w, r, &req)
		return
	}

	res := resultPool.Get().(*hique.Result)
	defer resultPool.Put(res)
	var qerr error
	err := s.pool.Do(func() {
		// The DB layer already converts engine panics into statement
		// errors; this recover is the worker's own containment so no
		// future panic class can take the process down.
		defer recoverToErr(&qerr)
		qerr = s.db.QueryInto(res, req.SQL, req.Params...)
	})
	if err != nil {
		// Rejected before admission: no session is minted, so overload
		// cannot inflate the registry.
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	}
	sess, ok := s.noteOutcome(w, r, qerr)
	if !ok {
		return
	}
	sess.note(res.Elapsed, false, time.Now())
	s.noteSlow("select", req.SQL, len(req.Params), res.Elapsed, len(res.Rows), sess.ID)
	s.writeJSON(w, http.StatusOK, queryResponse{
		Columns:   res.Columns,
		Rows:      res.Rows,
		RowCount:  len(res.Rows),
		ElapsedUs: res.Elapsed.Microseconds(),
		Session:   sess.ID,
	})
}

// analyzeResponse is the POST /query success body for EXPLAIN ANALYZE.
type analyzeResponse struct {
	Engine    string                `json:"engine"`
	Path      string                `json:"path"`
	Workers   int                   `json:"workers"`
	Plan      string                `json:"plan"`
	Stages    []hique.StageStats    `json:"stages"`
	Parallel  []hique.ParallelStats `json:"parallel,omitempty"`
	Rows      int                   `json:"rows"`
	ElapsedUs int64                 `json:"elapsed_us"`
	Session   string                `json:"session"`
}

// handleAnalyze serves EXPLAIN ANALYZE <stmt>: the statement runs (under
// the same admission pool) with per-stage tracing enabled and answers
// with the stage table instead of the row set.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request, stmt string, params []any) {
	var a *hique.AnalyzeResult
	var qerr error
	err := s.pool.Do(func() {
		defer recoverToErr(&qerr)
		a, qerr = s.db.ExplainAnalyze(stmt, params...)
	})
	if err != nil {
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	}
	sess, ok := s.noteOutcome(w, r, qerr)
	if !ok {
		return
	}
	sess.note(a.Elapsed, false, time.Now())
	s.writeJSON(w, http.StatusOK, analyzeResponse{
		Engine:    a.Engine,
		Path:      a.Path,
		Workers:   a.Workers,
		Plan:      a.Plan,
		Stages:    a.Stages,
		Parallel:  a.Parallel,
		Rows:      a.Rows,
		ElapsedUs: a.Elapsed.Microseconds(),
		Session:   sess.ID,
	})
}

// handleExec runs a DML statement through the same admission pool and
// session accounting as queries, answering with the rows-affected shape.
func (s *Server) handleExec(w http.ResponseWriter, r *http.Request, req *queryRequest) {
	var er hique.ExecResult
	var qerr error
	err := s.pool.Do(func() {
		defer recoverToErr(&qerr)
		er, qerr = s.db.Exec(req.SQL, req.Params...)
	})
	if err != nil {
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	}
	sess, ok := s.noteOutcome(w, r, qerr)
	if !ok {
		return
	}
	sess.note(er.Elapsed, false, time.Now())
	s.noteSlow("dml", req.SQL, len(req.Params), er.Elapsed, er.RowsAffected, sess.ID)
	s.writeJSON(w, http.StatusOK, execResponse{
		RowsAffected: er.RowsAffected,
		ElapsedUs:    er.Elapsed.Microseconds(),
		Session:      sess.ID,
	})
}

// slowEntry is one slow-query log line. Shape carries the redacted
// statement — every literal replaced by '?' (sql.RedactShape), so no data
// value reaches the log — and Arity the count of '?' placeholders the
// client's statement itself carried; Params is how many bind values
// accompanied the request.
type slowEntry struct {
	TS        string `json:"ts"`
	Kind      string `json:"kind"`
	Shape     string `json:"shape"`
	Arity     int    `json:"arity"`
	Params    int    `json:"params"`
	ElapsedUs int64  `json:"elapsed_us"`
	Rows      int    `json:"rows"`
	Session   string `json:"session"`
}

// noteSlow logs a statement that exceeded the slow-query threshold as one
// JSON line. The redaction and encoding run only for slow statements, so
// the fast path pays a single comparison.
func (s *Server) noteSlow(kind, stmt string, params int, elapsed time.Duration, rows int, session string) {
	if s.slowThreshold <= 0 || elapsed < s.slowThreshold {
		return
	}
	s.slow.Inc()
	shape, arity, err := sql.RedactShape(stmt)
	if err != nil {
		// A statement that executed but no longer lexes cannot happen;
		// redact fully rather than risk a literal.
		shape = "(unlexable)"
	}
	line, err := json.Marshal(slowEntry{
		TS:        time.Now().UTC().Format(time.RFC3339Nano),
		Kind:      kind,
		Shape:     shape,
		Arity:     arity,
		Params:    params,
		ElapsedUs: elapsed.Microseconds(),
		Rows:      rows,
		Session:   session,
	})
	if err != nil {
		return
	}
	s.slowMu.Lock()
	_, _ = s.slowLog.Write(append(line, '\n'))
	s.slowMu.Unlock()
}

// handleMetrics renders the DB and serving-layer registries in the
// Prometheus text exposition format. Like /healthz it takes no pool slot:
// scrapes must keep working while admission is shedding load.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.db.Metrics().WritePrometheus(w)
	_ = s.reg.WritePrometheus(w)
}

// recoverToErr converts a panic escaping a statement into its error
// result, keeping the worker (and the process) alive.
func recoverToErr(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("statement aborted by internal panic: %v", r)
	}
}

// noteOutcome mints the session, counts the statement, and writes the
// error response when qerr is set: BindError means the supplied parameter
// values are at fault (400), anything else — including a contained engine
// panic — is a statement error (422). It returns the session and true
// when the caller should write its success body.
func (s *Server) noteOutcome(w http.ResponseWriter, r *http.Request, qerr error) (*Session, bool) {
	sess := s.sessions.Acquire(r.Header.Get(SessionHeader))
	s.queries.Add(1)
	w.Header().Set(SessionHeader, sess.ID)
	if qerr == nil {
		return sess, true
	}
	s.errors.Add(1)
	sess.note(0, true, time.Now())
	status := http.StatusUnprocessableEntity
	var bindErr *hique.BindError
	if errors.As(qerr, &bindErr) {
		status = http.StatusBadRequest
	}
	s.writeJSON(w, status, errorResponse{Error: qerr.Error()})
	return sess, false
}

// handleHealthz is the load-balancer liveness probe: it answers without
// taking a pool slot (an overloaded server is still alive — health must
// not flap under the very load the 503 admission path is shedding) and
// without touching the catalogue. A draining server reports 503 so
// balancers stop routing to it while in-flight statements finish.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// statsResponse is the GET /stats body.
type statsResponse struct {
	UptimeSec float64       `json:"uptime_sec"`
	Queries   uint64        `json:"queries"`
	Errors    uint64        `json:"errors"`
	Workers   int           `json:"workers"`
	InFlight  int           `json:"in_flight"`
	Waiting   int64         `json:"waiting"`
	Admitted  uint64        `json:"admitted"`
	Rejected  uint64        `json:"rejected"`
	Sessions  int           `json:"sessions"`
	DB        hique.DBStats `json:"db"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, statsResponse{
		UptimeSec: time.Since(s.started).Seconds(),
		Queries:   s.queries.Load(),
		Errors:    s.errors.Load(),
		Workers:   s.pool.Workers(),
		InFlight:  s.pool.InFlight(),
		Waiting:   s.pool.Waiting(),
		Admitted:  s.pool.Admitted(),
		Rejected:  s.pool.Rejected(),
		Sessions:  s.sessions.Len(),
		DB:        s.db.Stats(),
	})
}

// tableInfo is one GET /tables element.
type tableInfo struct {
	Name    string   `json:"name"`
	Rows    int      `json:"rows"`
	Columns []string `json:"columns"`
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	names := s.db.Tables()
	out := make([]tableInfo, 0, len(names))
	for _, n := range names {
		// TableInfo reads under the DB's own ordered reader lock — entry
		// locks belong to the serving layer (hique-vet: lockorder).
		rows, cols, err := s.db.TableInfo(n)
		if err != nil {
			continue
		}
		out = append(out, tableInfo{Name: n, Rows: rows, Columns: cols})
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.sessions.List())
}
