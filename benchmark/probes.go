package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"hique"
	"hique/internal/catalog"
	"hique/internal/codegen"
	"hique/internal/core"
	"hique/internal/server"
	"hique/internal/wal"
)

// The probes are the traced run's second half: a seed-identical sample
// of the workload's statements replayed through each layer's public
// functions, with a span around every call. Nothing inside the layers is
// instrumented, so nesting is by arithmetic, not by observation: the
// outer call (the loopback request, the handler, DB.QueryInto) and the
// inner layers (shape, cache lookup, parse, plan, generate, run) are
// timed side by side under one request root, and a layer's "self" metric
// is the outer median minus the medians of what it calls.

// us converts a nanosecond median to microseconds.
func us(ns float64) float64 { return ns / 1e3 }

// med returns the median (ns) and sample count of one span name.
func med(by map[string][]int64, name string) (float64, int) {
	return medianOf(by[name]), len(by[name])
}

// setUs stores the median of a span name as a microsecond metric.
func setUs(out values, metric string, by map[string][]int64, name string) float64 {
	m, n := med(by, name)
	out.set(metric, us(m), n)
	return m
}

// ---------------------------------------------------------------------
// tpch_analytic
// ---------------------------------------------------------------------

func probeTPCH(tr *tracer, out values, cat *catalog.Catalog, db *hique.DB, queries [4]string) error {
	rp := newReplayer(cat)
	serial := newReplayer(cat)
	serial.opts.Parallelism = 1
	general := core.NewEngine()

	// Single timings of these queries scatter by a tenth or more on the
	// shared machine; nine rounds steady the medians the sums are taken of.
	const rounds = 9
	var res hique.Result
	var query, run, exec, shape [4][]int64
	// self and serialRatio pair two calls of one request: a slow phase of
	// the machine lasts seconds, so it slows both alike and cancels.
	var self [4][]int64
	var serialRatio [2][]float64
	req := 0
	for round := 0; round < rounds; round++ {
		for qi, q := range queries {
			var err error
			root := tr.begin("request", -1, req)
			var wt warmTimes
			steps := [2]func() error{
				func() (err error) {
					d := tr.call("hique.query", root, req, func() { err = db.QueryInto(&res, q) })
					query[qi] = append(query[qi], int64(d))
					return err
				},
				func() (err error) {
					rep := tr.begin("layers.replay", root, req)
					wt, err = rp.replayWarm(tr, rep, req, q, nil)
					tr.end(rep)
					return err
				},
			}
			// Whichever of the two goes first finds the tables colder in the
			// shared last-level cache, so the order alternates by round.
			if round%2 == 1 {
				steps[0], steps[1] = steps[1], steps[0]
			}
			for _, step := range steps {
				if err := step(); err != nil {
					return err
				}
			}
			shape[qi] = append(shape[qi], int64(wt.shape))
			run[qi] = append(run[qi], int64(wt.run))
			self[qi] = append(self[qi], query[qi][round]-int64(wt.shape+wt.run))

			// The same plan through the general operator walk: what the
			// fused loops are compared with.
			cq, params, err := rp.prepare(q, nil)
			if err != nil {
				return err
			}
			bound, err := cq.Plan.Bind(params)
			if err != nil {
				return err
			}
			exec[qi] = append(exec[qi], int64(tr.call("core.execute", root, req, func() {
				t, e := general.Execute(bound)
				if err = e; e == nil {
					t.Release()
				}
			})))
			if err != nil {
				return err
			}
			// The same pipeline compiled for one worker (Q1 and Q3, the
			// scan- and the join-dominated query).
			if qi < 2 {
				scq, sparams, err := serial.prepare(q, nil)
				if err != nil {
					return err
				}
				d := tr.call("codegen.run_serial", root, req, func() { err = runCompiled(scq, sparams) })
				if err != nil {
					return err
				}
				serialRatio[qi] = append(serialRatio[qi], float64(d)/float64(wt.run))
			}
			tr.end(root)
			req++
		}
	}

	// One operation is a power run, so the per-statement layers report
	// the sum of the four queries' medians.
	var sumQuery, sumRun, sumShape, sumSelf float64
	for qi, name := range tpchNames {
		r := medianOf(run[qi])
		out.set("codegen.run_"+name+"_ms", r/1e6, len(run[qi]))
		out.set("core.execute_"+name+"_ms", medianOf(exec[qi])/1e6, len(exec[qi]))
		sumQuery += medianOf(query[qi])
		sumRun += r
		sumShape += medianOf(shape[qi])
		sumSelf += medianOf(self[qi])
	}
	out.set("morsel.serial_ratio_q1", medianFloat(serialRatio[0]), rounds)
	out.set("morsel.serial_ratio_q3", medianFloat(serialRatio[1]), rounds)
	getNs := probeCacheGet(rp, queries[0], nil)
	out.set("plancache.get_ns", getNs, 1)
	out.set("hique.query_us", us(sumQuery), rounds)
	out.set("codegen.run_us", us(sumRun), rounds)
	out.set("sql.shape_us", us(sumShape), rounds)
	out.set("hique.query_self_us", us(sumSelf-4*getNs), rounds)

	var aQuery, aRun, aShape float64
	for _, q := range queries {
		q := q
		cq, params, err := rp.prepare(q, nil)
		if err != nil {
			return err
		}
		aQuery += allocsPerCall(3, func() { _ = db.QueryInto(&res, q) })
		aRun += allocsPerCall(3, func() { _ = runCompiled(cq, params) })
		aShape += allocsPerCall(100, func() { _ = rp.shape.Shape(q) })
	}
	out.set("hique.query_allocs", aQuery, 3)
	out.set("codegen.run_allocs", aRun, 3)
	out.set("sql.shape_allocs", aShape, 100)
	return nil
}

// probeCacheGet times GetStamped on a warm key.
func probeCacheGet(rp *replayer, stmt string, args []any) float64 {
	if _, _, err := rp.prepare(stmt, args); err != nil {
		return 0
	}
	key := append([]byte(nil), rp.cacheKey()...)
	return nsPerCall(21, 2000, func() { rp.cache.GetStamped(key) })
}

// ---------------------------------------------------------------------
// cold_prepare
// ---------------------------------------------------------------------

func probeCold(tr *tracer, out values, cat *catalog.Catalog, stmts []genStmt, n int) error {
	if n > len(stmts) {
		n = len(stmts)
	}
	// A fresh DB and a fresh replayer: the first execution of each of
	// the n sampled shapes is a miss on both.
	db := hique.Open(hique.WithCatalog(cat), hique.WithPlanCache(planCacheSize))
	rp := newReplayer(cat)
	var res hique.Result
	var emit, compile, source []int64
	fused := 0
	for req := 0; req < n; req++ {
		st := stmts[req].text
		var err error
		root := tr.begin("request", -1, req)
		tr.call("hique.query", root, req, func() { err = db.QueryInto(&res, st) })
		if err != nil {
			return fmt.Errorf("cold_prepare probe: %s: %w", st, err)
		}
		rep := tr.begin("layers.replay", root, req)
		cs, err := rp.replayCold(tr, rep, req, st, nil)
		tr.end(rep)
		tr.end(root)
		if err != nil {
			return fmt.Errorf("cold_prepare probe: %s: %w", st, err)
		}
		emit, compile, source = append(emit, int64(cs.emit)), append(compile, int64(cs.compile)), append(source, int64(cs.sourceBytes))
		if cs.fused {
			fused++
		}
	}
	by := durationsByName(tr.spans)
	query := setUs(out, "hique.query_us", by, "hique.query")
	replay, _ := med(by, "layers.replay")
	setUs(out, "sql.shape_us", by, "sql.shape")
	setUs(out, "sql.parse_us", by, "sql.parse")
	setUs(out, "plan.build_us", by, "plan.build")
	setUs(out, "codegen.run_us", by, "codegen.run")
	out.set("hique.query_self_us", us(query-replay), n)
	// The generate/compile split is the layer's own (CompiledQuery.Prep):
	// emitting the source text, then go/parser plus building the closures.
	out.set("codegen.generate_us", us(medianOf(emit)), n)
	out.set("codegen.compile_us", us(medianOf(compile)), n)
	out.set("codegen.source_bytes", medianOf(source), n)
	out.set("plancache.get_ns", probeCacheGet(rp, stmts[0].text, nil), 1)

	// Allocation counts, each for taking the first two statements of the
	// cycle through the layer: a one-entry cache makes two alternating
	// statements miss on every QueryInto, so the pair is the unit.
	const runs = 50
	pair := [2]string{stmts[0].text, stmts[1%len(stmts)].text}
	var aShape, aParse, aBuild, aGenerate, aRun float64
	for _, st := range pair {
		st := st
		cq, params, err := rp.prepare(st, nil)
		if err != nil {
			return err
		}
		shape := string(rp.shape.Out)
		parse := allocsPerCall(runs, func() { _, _ = rp.parse(shape) })
		aShape += allocsPerCall(runs, func() { _ = rp.shape.Shape(st) })
		aParse += parse
		aBuild += allocsPerCall(runs, func() { _, _ = rp.build(shape) }) - parse
		aGenerate += allocsPerCall(runs, func() { _, _ = codegen.Generate(cq.Plan, codegen.OptO2) })
		aRun += allocsPerCall(runs, func() { _ = runCompiled(cq, params) })
	}
	out.set("sql.shape_allocs", aShape, runs)
	out.set("sql.parse_allocs", aParse, runs)
	out.set("plan.build_allocs", aBuild, runs)
	out.set("codegen.generate_allocs", aGenerate, runs)
	out.set("codegen.run_allocs", aRun, runs)
	one := hique.Open(hique.WithCatalog(cat), hique.WithPlanCache(1))
	out.set("hique.query_allocs", allocsPerCall(runs, func() {
		_ = one.QueryInto(&res, pair[0])
		_ = one.QueryInto(&res, pair[1])
	}), runs)
	return nil
}

// ---------------------------------------------------------------------
// serve_point_http and serve_mixed_rw_http
// ---------------------------------------------------------------------

// probeStmt is one sampled read and its class in the workload's mix.
type probeStmt struct {
	read  *readStmt
	class int
}

// serveProbe is what the HTTP workloads hand the probes: the sampled
// reads and the live connection's own read operation; on the mixed
// workload also the live connection's write operation (so a probed write
// goes through the same books as a windowed one) and where to put a
// durable DB of the benchmark's own.
type serveProbe struct {
	cat    *catalog.Catalog
	sample []probeStmt
	read   func(*readStmt) bool
	// hitShare is the plan-cache hit share the window observed; it
	// decides whether the inner layers are replayed as a hit or a miss.
	hitShare float64

	write func() (int, bool) // nil on a read-only workload
	dir   string             // durable DB + WAL directory
	seed  int64
	width int64 // lineitem tuple width
}

// recorder is a reusable http.ResponseWriter for driving the handler
// without a socket.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(c int)   { r.code = c }
func (r *recorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(b)
}

// handlerCall drives POST /query on an in-process server.Handler.
type handlerCall struct {
	h    http.Handler
	req  *http.Request
	body closingReader
	rec  recorder
}

type closingReader struct{ bytes.Reader }

func (*closingReader) Close() error { return nil }

func newHandlerCall(h http.Handler) (*handlerCall, error) {
	req, err := http.NewRequest(http.MethodPost, "/query", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return &handlerCall{h: h, req: req, rec: recorder{header: http.Header{}}}, nil
}

// do serves one body and reports whether the handler answered 200.
func (c *handlerCall) do(body []byte) bool {
	c.body.Reset(body)
	c.req.Body = &c.body
	clear(c.rec.header)
	c.rec.code = 0
	c.rec.body.Reset()
	c.h.ServeHTTP(&c.rec, c.req)
	if c.req.Header.Get(sessionHeader) == "" {
		c.req.Header.Set(sessionHeader, c.rec.header.Get(sessionHeader))
	}
	return c.rec.code == http.StatusOK
}

// localWriter applies the mixed workload's write cycle to the
// benchmark's own DB: 10-row INSERTs with fresh keys and, after every
// deleteEvery-1 of them, a DELETE of those batches.
type localWriter struct {
	db     *hique.DB
	r      *rand.Rand
	seq    int64
	oldest int64
}

// next draws the arguments of the next INSERT batch.
func (w *localWriter) next() []any {
	args := insertArgs(w.r, w.seq)
	w.seq++
	return args
}

// level deletes the inserted batches once deleteEvery-1 have built up.
func (w *localWriter) level() error {
	if w.seq-w.oldest < deleteEvery-1 {
		return nil
	}
	_, err := w.db.Exec(deleteSQL, freshKeyBase+w.oldest*batchRows, freshKeyBase+w.seq*batchRows)
	w.oldest = w.seq
	return err
}

// dirty applies one untimed INSERT, so that the read that follows meets
// what a read meets in the window: statistics to refresh and a cached
// plan whose stamp no longer matches.
func (w *localWriter) dirty() error {
	if _, err := w.db.Exec(insertSQL, w.next()...); err != nil {
		return err
	}
	return w.level()
}

func probeServe(tr *tracer, out values, sp serveProbe) error {
	// The benchmark's own copy of the serving stack, wired the way
	// cmd/hique-server wires it (defaults, 256-entry plan cache).
	var db *hique.DB
	var lw *localWriter
	if sp.write != nil {
		var err error
		db, err = hique.OpenDurable(filepath.Join(sp.dir, "db"), hique.WithCatalog(sp.cat),
			hique.WithPlanCache(planCacheSize), hique.WithFsync(hique.FsyncAlways))
		if err != nil {
			return err
		}
		defer db.Close()
		// Batch numbers of the probe's own, far above the live writer's.
		lw = &localWriter{db: db, r: rand.New(rand.NewSource(sp.seed*31 + 3)), seq: 1 << 20, oldest: 1 << 20}
	} else {
		db = hique.Open(hique.WithCatalog(sp.cat), hique.WithPlanCache(planCacheSize))
	}
	hc, err := newHandlerCall(server.New(db, server.Config{}).Handler())
	if err != nil {
		return err
	}
	rp := newReplayer(sp.cat)
	var res hique.Result
	warm := sp.hitShare >= 0.5

	// Untimed first pass: every shape compiled and cached on the DB, as
	// after the window's warm-up.
	for _, st := range sp.sample {
		if !hc.do(st.read.body) {
			return fmt.Errorf("probe: handler refused %s: %s", st.read.sql, hc.rec.body.String())
		}
	}

	for req, st := range sp.sample {
		rd := st.read
		var err error
		ok := true
		// An untimed request first, so that the timed one finds the server
		// as the window's requests find it: its threads busy, not parked —
		// and on the mixed workload its statistics stale and its cached
		// plan invalidated, because that request is the writer's next
		// statement. The in-process reads follow a write the same way.
		root := tr.begin("request", -1, req)
		tr.call("probe.precede", root, req, func() {
			if sp.write != nil {
				_, ok = sp.write()
			} else {
				ok = sp.read(rd)
			}
		})
		if ok {
			tr.call("client.request", root, req, func() { ok = sp.read(rd) })
		}
		if !ok {
			return fmt.Errorf("probe: loopback request failed the reference check: %s", rd.sql)
		}
		if lw != nil {
			tr.call("probe.precede", root, req, func() { err = lw.dirty() })
		}
		if err == nil {
			tr.call("server.handler", root, req, func() { ok = hc.do(rd.body) })
		}
		if err != nil || !ok {
			return fmt.Errorf("probe: handler refused %s (%v)", rd.sql, err)
		}
		if lw != nil {
			tr.call("probe.precede", root, req, func() { err = lw.dirty() })
		}
		if err != nil {
			return err
		}
		tr.call("hique.query", root, req, func() { err = db.QueryInto(&res, rd.sql, rd.args...) })
		if err != nil {
			return err
		}
		rep := tr.begin("layers.replay", root, req)
		if warm {
			_, err = rp.replayWarm(tr, rep, req, rd.sql, rd.args)
		} else {
			_, err = rp.replayCold(tr, rep, req, rd.sql, rd.args)
		}
		tr.end(rep)
		tr.end(root)
		if err != nil {
			return err
		}
	}

	by := durationsByName(tr.spans)
	request, _ := med(by, "client.request")
	handler := setUs(out, "server.handler_us", by, "server.handler")
	query := setUs(out, "hique.query_us", by, "hique.query")
	replay, _ := med(by, "layers.replay")
	setUs(out, "sql.shape_us", by, "sql.shape")
	setUs(out, "codegen.run_us", by, "codegen.run")
	first := sp.sample[0].read
	out.set("plancache.get_ns", probeCacheGet(rp, first.sql, first.args), 1)
	n := len(sp.sample)
	// What DB.QueryInto spends outside the replayed layers: table locks,
	// materialisation, and after a write the statistics refresh.
	out.set("hique.query_self_us", us(query-replay), n)
	out.set("server.self_us", us(handler-query), n)
	out.set("client.transport_us", us(request-handler), n)

	overhead, err := loadgenOverhead(first)
	if err != nil {
		return err
	}
	out.set("client.loadgen_overhead_us", us(overhead), nullRequests)

	const runs = 100
	out.set("server.handler_allocs", allocsPerCall(runs, func() { hc.do(first.body) }), runs)
	out.set("hique.query_allocs", allocsPerCall(runs, func() { _ = db.QueryInto(&res, first.sql, first.args...) }), runs)
	out.set("sql.shape_allocs", allocsPerCall(runs, func() { _ = rp.shape.Shape(first.sql) }), runs)
	cq, params, err := rp.prepare(first.sql, first.args)
	if err != nil {
		return err
	}
	out.set("codegen.run_allocs", allocsPerCall(runs, func() { _ = runCompiled(cq, params) }), runs)

	if sp.write != nil {
		return probeWrites(tr, out, sp, lw, hc, len(sp.sample))
	}
	return nil
}

// probeWrites replays the write side: the live connection's own next
// statements, the handler and DB.Exec on the benchmark's durable DB with
// the same 10-row INSERT, and Log.Append / Log.Commit on records of the
// size that INSERT logs.
func probeWrites(tr *tracer, out values, sp serveProbe, lw *localWriter, hc *handlerCall, req int) error {
	log, err := wal.Open(filepath.Join(sp.dir, "wal"), wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer log.Close()
	// str16 table | u32 tupleSize | u32 nRows | rows: the insert record.
	payload := make([]byte, 2+len("lineitem")+4+4+int(sp.width)*batchRows)

	n := len(sp.sample) / 2
	for i := 0; i < n; i++ {
		var err error
		ok := true
		root := tr.begin("request", -1, req)
		id := tr.begin("client.request.write", root, req)
		class, ok := sp.write()
		tr.end(id)
		if !ok {
			return fmt.Errorf("probe: loopback write (class %d) failed", class)
		}
		body := queryBody(insertSQL, lw.next())
		tr.call("server.handler.write", root, req, func() { ok = hc.do(body) })
		if !ok {
			return fmt.Errorf("probe: handler refused the INSERT: %s", hc.rec.body.String())
		}
		args := lw.next()
		tr.call("hique.exec", root, req, func() { _, err = lw.db.Exec(insertSQL, args...) })
		if err != nil {
			return err
		}
		var lsn uint64
		tr.call("wal.append", root, req, func() { lsn, err = log.Append(1, payload) })
		if err != nil {
			return err
		}
		tr.call("wal.commit", root, req, func() { err = log.Commit(lsn) })
		tr.end(root)
		if err != nil {
			return err
		}
		if err := lw.level(); err != nil {
			return err
		}
		req++
	}
	by := durationsByName(tr.spans)
	setUs(out, "hique.exec_us", by, "hique.exec")
	setUs(out, "wal.append_us", by, "wal.append")
	setUs(out, "wal.commit_us", by, "wal.commit")
	args := lw.next()
	const runs = 20
	out.set("hique.exec_allocs", allocsPerCall(runs, func() { _, _ = lw.db.Exec(insertSQL, args...) }), runs)
	return nil
}

const nullRequests = 500

// loadgenOverhead runs the benchmark's own client — body, POST over a
// keep-alive loopback connection, read, decode, compare — against a
// handler that does nothing but return a canned reply of the first
// sampled statement's size. What it measures is the harness and the
// loopback HTTP stack, the floor under every client.* latency.
func loadgenOverhead(st *readStmt) (float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	canned := cannedResponse(st.want)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var sink [512]byte
		for {
			if _, err := r.Body.Read(sink[:]); err != nil {
				break
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(canned)
	})}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(l)
		close(done)
	}()
	defer func() {
		_ = srv.Close()
		<-done
	}()
	c := newConn("http://" + l.Addr().String())
	defer c.close()
	h := &httpReader{c: c}
	lat := make([]int64, 0, nullRequests)
	for i := 0; i < nullRequests+50; i++ {
		start := time.Now()
		if !h.read(st) {
			return 0, fmt.Errorf("probe: null handler round trip failed the comparison")
		}
		if i >= 50 {
			lat = append(lat, int64(time.Since(start)))
		}
	}
	return medianOf(lat), nil
}

// cannedResponse renders rows the way the server's encoder would.
func cannedResponse(rows [][]any) []byte {
	b := []byte(`{"columns":[],"rows":[`)
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, c := range row {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendJSONValue(b, c)
		}
		b = append(b, ']')
	}
	return append(b, fmt.Sprintf(`],"row_count":%d,"elapsed_us":0,"session":"null"}`+"\n", len(rows))...)
}
