package main

// serve_mixed_rw_http: one writing and one reading connection on a
// durable server.

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"hique"
	"hique/internal/catalog"
	"hique/internal/tpch"
)

const (
	classReadPoint = 0
	classReadScan  = 1
	classInsert    = 2
	classDelete    = 3

	batchRows = 10 // rows per INSERT statement
	// deleteEvery: of every deleteEvery write statements the last is a
	// DELETE of the deleteEvery-1 oldest batches, so the table returns to
	// its seeded size after each cycle.
	deleteEvery = 5
	// freshKeyBase puts inserted order keys far above the generated
	// range, so the reader's keys are never touched by the writer.
	freshKeyBase = 1_000_000

	mixedPointCols = "l_orderkey, l_linenumber, l_quantity, l_extendedprice"
	mixedPointSQL  = "SELECT " + mixedPointCols + " FROM lineitem WHERE l_orderkey = ?"
	// mixedScanSQL is Q6-shaped: a scan-aggregate that holds the table's
	// read lock for milliseconds. Inserted rows ship in 1999, outside
	// every year the scan asks for, so its answer does not depend on how
	// far the writer has got.
	mixedScanSQL = "SELECT SUM(l_extendedprice * l_discount) AS revenue, COUNT(*) AS n FROM lineitem WHERE l_shipdate >= ? AND l_shipdate < ? AND l_discount >= ? AND l_discount <= ? AND l_quantity < ?"
	insertedShip = "1999-06-01"
	deleteSQL    = "DELETE FROM lineitem WHERE l_orderkey >= ? AND l_orderkey < ?"
	countSQL     = "SELECT COUNT(*) AS n FROM lineitem"
)

// insertSQL is the 10-row parameterized multi-VALUES INSERT: one cached
// write plan serves every batch.
var insertSQL = func() string {
	row := "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
	b := []byte("INSERT INTO lineitem VALUES ")
	for i := 0; i < batchRows; i++ {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, row...)
	}
	return string(b)
}()

// lineitemRow draws one row payload for the given order key.
func lineitemRow(r *rand.Rand, key int64, line int) []any {
	qty := float64(1 + r.Intn(50))
	price := qty * (900 + float64(r.Intn(1000))/10)
	return []any{
		key, int64(1 + r.Intn(2000)), int64(1 + r.Intn(100)), int64(line),
		qty, price, float64(r.Intn(11)) / 100, float64(r.Intn(9)) / 100,
		"N", "O", insertedShip, insertedShip, insertedShip,
	}
}

// insertArgs draws the 130 arguments of batch number seq: ten rows with
// fresh consecutive order keys.
func insertArgs(r *rand.Rand, seq int64) []any {
	args := make([]any, 0, batchRows*13)
	for i := 0; i < batchRows; i++ {
		args = append(args, lineitemRow(r, freshKeyBase+seq*batchRows+int64(i), i+1)...)
	}
	return args
}

// lineitemWidth is the tuple width of lineitem: the user bytes one
// inserted row carries (13 columns: 10 eight-byte values, CHAR(1) x2...).
func lineitemWidth(cat *catalog.Catalog) (int64, error) {
	ent, err := cat.Lookup("lineitem")
	if err != nil {
		return 0, err
	}
	return int64(ent.Table.Schema().TupleSize()), nil
}

// mixedWriter is connection A: INSERT batches with a periodic DELETE of
// the oldest ones. It keeps the books the final count is checked
// against: rows in acknowledged inserts minus rows in acknowledged
// deletes.
type mixedWriter struct {
	c    *conn
	r    *rand.Rand
	wire wireResponse

	seq      int64 // next batch number
	oldest   int64 // oldest batch still in the table
	stmts    int64 // acknowledged write statements
	inserted int64 // rows in acknowledged inserts
	deleted  int64 // rows in acknowledged deletes
}

func (w *mixedWriter) affected(body []byte, want int) bool {
	if err := decodeWire(body, &w.wire); err != nil || w.wire.RowsAffected == nil {
		return false
	}
	return *w.wire.RowsAffected == want
}

func (w *mixedWriter) op() (int, bool) {
	if (w.stmts+1)%deleteEvery == 0 && w.seq > w.oldest {
		lo, hi := freshKeyBase+w.oldest*batchRows, freshKeyBase+w.seq*batchRows
		status, body, err := w.c.post(queryBody(deleteSQL, []any{lo, hi}))
		if err != nil || status != 200 {
			return classDelete, false
		}
		n := int(hi - lo)
		w.stmts++
		w.deleted += int64(n)
		w.oldest = w.seq
		return classDelete, w.affected(body, n)
	}
	status, body, err := w.c.post(queryBody(insertSQL, insertArgs(w.r, w.seq)))
	w.seq++
	if err != nil || status != 200 {
		return classInsert, false
	}
	w.stmts++
	w.inserted += batchRows
	return classInsert, w.affected(body, batchRows)
}

func setupMixedRW(e *env, cfg config) (*instance, error) {
	bin, err := e.buildServer()
	if err != nil {
		return nil, err
	}
	dataDir, err := e.tempDir("data-")
	if err != nil {
		return nil, err
	}
	serverArgs := []string{"-data", dataDir, "-fsync", "always"}
	srv, err := e.startServer(bin, append([]string{"-tpch", "0.01"}, serverArgs...)...)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*instance, error) {
		srv.kill()
		return nil, err
	}
	cat := tpchCatalog(0.01)
	ref := openReference(cat)
	seeded, err := expectRows(ref, countSQL)
	if err != nil {
		return fail(err)
	}
	seededRows := seeded[0][0].(int64)
	width, err := lineitemWidth(cat)
	if err != nil {
		return fail(err)
	}

	// Reader inputs from the seed: stable order keys, and Q6-shaped
	// scans over a drawn year, discount band and quantity cutoff.
	r := rand.New(rand.NewSource(cfg.seed))
	nPoint, nScan := 512, 16
	if cfg.quick {
		nPoint, nScan = 32, 4
	}
	nOrders := int64(tpch.Cardinality("orders", 0.01))
	lines, err := referenceTable(ref, mixedPointCols, "lineitem")
	if err != nil {
		return fail(err)
	}
	points := make([]readStmt, nPoint)
	for i := range points {
		key := 1 + r.Int63n(nOrders)
		points[i] = newRead(lines.between(key, key+1), mixedPointSQL, key)
		if len(points[i].want) == 0 {
			return fail(fmt.Errorf("serve_mixed_rw_http: reference holds no lineitem of order %d", key))
		}
	}
	scans := make([]readStmt, nScan)
	for i := range scans {
		year := 1993 + r.Intn(5)
		disc := float64(2+r.Intn(8)) / 100
		args := []any{
			fmt.Sprintf("%d-01-01", year), fmt.Sprintf("%d-01-01", year+1),
			disc - 0.01, disc + 0.01, int64(24 + r.Intn(2)),
		}
		want, err := expectRows(ref, mixedScanSQL, args...)
		if err != nil {
			return fail(err)
		}
		scans[i] = newRead(want, mixedScanSQL, args...)
	}

	writer := &mixedWriter{c: newConn(srv.addr), r: rand.New(rand.NewSource(cfg.seed*31 + 1))}
	reader := &httpReader{c: newConn(srv.addr)}
	rr := rand.New(rand.NewSource(cfg.seed*31 + 2))
	reads := 0
	readOp := func() (int, bool) {
		reads++
		if reads%10 == 0 {
			return classReadScan, reader.read(&scans[rr.Intn(len(scans))])
		}
		return classReadPoint, reader.read(&points[rr.Intn(len(points))])
	}

	checkCount := func(addr, when string) error {
		c := newConn(addr)
		defer c.close()
		h := &httpReader{c: c}
		want := seededRows + writer.inserted - writer.deleted
		st := readStmt{body: queryBody(countSQL, nil), want: [][]any{{want}}}
		if !h.read(&st) {
			return fmt.Errorf("serve_mixed_rw_http: %s: COUNT(*) is not %d (seeded %d + inserted %d - deleted %d); server said %v",
				when, want, seededRows, writer.inserted, writer.deleted, h.wire.Rows)
		}
		return nil
	}

	inst := &instance{
		classes:  []string{"read_point", "read_scan", "insert", "delete"},
		clients:  []opFunc{writer.op, readOp},
		target:   &target{pid: srv.pid()},
		counters: func() (promSamples, error) { return scrape(srv.addr) },
		respRows: func() (int64, int64) { return reader.rows, reader.bytes },
		writes:   func() (int64, int64) { return writer.stmts, writer.inserted * width },
	}
	inst.probe = func(tr *tracer, out values) error {
		dir, err := e.tempDir("probe-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		return probeServe(tr, out, serveProbe{
			cat:    cat,
			sample: sampleReads(rand.New(rand.NewSource(cfg.seed)), cfg.probeWriteRequests(), points, scans, 10),
			read:   reader.read,

			hitShare: out["plancache.hit_share"].V,

			write: writer.op,
			dir:   dir,
			seed:  cfg.seed,
			width: width,
		})
	}
	// verify: the count matches the books, and acknowledged writes
	// survive a restart on the same directory. The end-to-end run drains
	// the server (SIGTERM: final checkpoint, exit 0). The traced run
	// crashes it (SIGKILL), so that recovery has the window's log to
	// replay: the benchmark times hique.OpenDurable on the directory the
	// run left and counts the rows itself before the server comes back.
	inst.verify = func(crash bool, out values) error {
		want := seededRows + writer.inserted - writer.deleted
		if err := checkCount(srv.addr, "after the window"); err != nil {
			return err
		}
		writer.c.close()
		reader.c.close()
		if crash {
			srv.kill()
			srv = nil
			start := time.Now()
			left, err := hique.OpenDurable(dataDir, hique.WithPlanCache(planCacheSize))
			if err != nil {
				return fmt.Errorf("serve_mixed_rw_http: recovering %s: %w", dataDir, err)
			}
			out.set("wal.recovery_ms", float64(time.Since(start))/1e6, int(left.RecoveryStats().ReplayedRecords))
			got, qerr := left.Query(countSQL)
			if err := left.Close(); err != nil {
				return err
			}
			if qerr != nil || !rowsEqual([][]any{{want}}, got.Rows, true) {
				return fmt.Errorf("serve_mixed_rw_http: after crash recovery COUNT(*) is not %d (%v, %v)", want, got, qerr)
			}
		} else {
			err := srv.stop()
			srv = nil
			if err != nil {
				return err
			}
		}
		again, err := e.startServer(bin, serverArgs...)
		if err != nil {
			return err
		}
		err = checkCount(again.addr, "after restart")
		if serr := again.stop(); err == nil {
			err = serr
		}
		return err
	}
	inst.close = func() {
		writer.c.close()
		reader.c.close()
		if srv != nil {
			_ = srv.stop()
		}
		_ = os.RemoveAll(dataDir)
	}
	return inst, nil
}
