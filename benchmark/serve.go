package main

// serve_point_http, and the HTTP read path it shares with
// serve_mixed_rw_http.

import (
	"fmt"
	"math/rand"
	"strconv"

	"hique/internal/tpch"
)

const (
	pointCols = "c_custkey, c_name, c_acctbal, c_mktsegment"
	pointSQL  = "SELECT " + pointCols + " FROM customer WHERE c_custkey = ?"
	// No ORDER BY: a single-table scan returns storage order on every
	// engine, and an ORDER BY would take the statement off the fused
	// single-table pipeline this workload is meant to serve from.
	rangeCols = "o_orderkey, o_custkey, o_totalprice, o_orderdate"
	rangeSQL  = "SELECT " + rangeCols + " FROM orders WHERE o_orderkey >= ? AND o_orderkey < ?"

	classPoint = 0
	classRange = 1
)

// readStmt is one read with its reference answer.
type readStmt struct {
	sql  string
	args []any
	body []byte // the POST /query body
	want [][]any
}

// queryBody renders {"sql":...,"params":[...]} for integer, float and
// string arguments.
func queryBody(sqlText string, args []any) []byte {
	b := append([]byte(`{"sql":`), strconv.Quote(sqlText)...)
	b = append(b, `,"params":[`...)
	for i, a := range args {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONValue(b, a)
	}
	return append(b, "]}"...)
}

// appendJSONValue renders one int64, float64 or string as JSON.
func appendJSONValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case int64:
		return strconv.AppendInt(b, x, 10)
	case float64:
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	case string:
		return strconv.AppendQuote(b, x)
	}
	panic(fmt.Sprintf("benchmark: no JSON rendering for %T", v))
}

func newRead(want [][]any, sqlText string, args ...any) readStmt {
	return readStmt{sql: sqlText, args: args, body: queryBody(sqlText, args), want: want}
}

// httpReader is the read side of an HTTP workload's connection: it
// posts a statement, decodes the reply and compares it with the
// reference, counting the rows and bytes that came back.
type httpReader struct {
	c     *conn
	wire  wireResponse
	rows  int64
	bytes int64
}

func (h *httpReader) read(st *readStmt) bool {
	status, body, err := h.c.post(st.body)
	if err != nil || status != 200 {
		return false
	}
	if err := decodeWire(body, &h.wire); err != nil {
		return false
	}
	h.rows += int64(len(h.wire.Rows))
	h.bytes += int64(len(body))
	return rowsEqual(st.want, h.wire.Rows, true)
}

func setupServePoint(e *env, cfg config) (*instance, error) {
	bin, err := e.buildServer()
	if err != nil {
		return nil, err
	}
	srv, err := e.startServer(bin, "-tpch", "0.01")
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*instance, error) {
		srv.kill()
		return nil, err
	}
	cat := tpchCatalog(0.01)
	ref := openReference(cat)

	// Inputs from the seed: a pool of customer keys and of 50-order
	// ranges, uniform over the generated key space.
	r := rand.New(rand.NewSource(cfg.seed))
	nPoint, nRange := 1024, 128
	if cfg.quick {
		nPoint, nRange = 64, 8
	}
	nCust, nOrders := int64(tpch.Cardinality("customer", 0.01)), int64(tpch.Cardinality("orders", 0.01))
	customers, err := referenceTable(ref, pointCols, "customer")
	if err != nil {
		return fail(err)
	}
	orders, err := referenceTable(ref, rangeCols, "orders")
	if err != nil {
		return fail(err)
	}
	points := make([]readStmt, nPoint)
	for i := range points {
		key := 1 + r.Int63n(nCust)
		points[i] = newRead(customers.between(key, key+1), pointSQL, key)
		if len(points[i].want) != 1 {
			return fail(fmt.Errorf("serve_point_http: reference holds %d rows for customer key %d", len(points[i].want), key))
		}
	}
	ranges := make([]readStmt, nRange)
	for i := range ranges {
		lo := 1 + r.Int63n(nOrders-50)
		ranges[i] = newRead(orders.between(lo, lo+50), rangeSQL, lo, lo+50)
		if len(ranges[i].want) != 50 {
			return fail(fmt.Errorf("serve_point_http: reference holds %d rows for the 50-key range at %d", len(ranges[i].want), lo))
		}
	}

	readers := make([]*httpReader, 2)
	clients := make([]opFunc, 2)
	for i := range clients {
		h := &httpReader{c: newConn(srv.addr)}
		readers[i] = h
		cr := rand.New(rand.NewSource(cfg.seed*31 + int64(i) + 1))
		clients[i] = func() (int, bool) {
			if cr.Intn(10) == 0 {
				return classRange, h.read(&ranges[cr.Intn(len(ranges))])
			}
			return classPoint, h.read(&points[cr.Intn(len(points))])
		}
	}
	return &instance{
		classes:  []string{"point", "range50"},
		clients:  clients,
		target:   &target{pid: srv.pid()},
		counters: func() (promSamples, error) { return scrape(srv.addr) },
		probe: func(tr *tracer, out values) error {
			return probeServe(tr, out, serveProbe{
				cat:    cat,
				sample: sampleReads(rand.New(rand.NewSource(cfg.seed)), cfg.probeRequests(), points, ranges, 10),
				read:   readers[0].read,

				hitShare: out["plancache.hit_share"].V,
			})
		},
		respRows: func() (int64, int64) {
			var rows, n int64
			for _, h := range readers {
				rows, n = rows+h.rows, n+h.bytes
			}
			return rows, n
		},
		close: func() {
			for _, h := range readers {
				h.c.close()
			}
			_ = srv.stop()
		},
	}, nil
}

// sampleReads draws n statements in the workload's own mix: one of
// every `every` from minor, the rest from major.
func sampleReads(r *rand.Rand, n int, major, minor []readStmt, every int) []probeStmt {
	out := make([]probeStmt, n)
	for i := range out {
		if r.Intn(every) == 0 {
			out[i] = probeStmt{read: &minor[r.Intn(len(minor))], class: 1}
		} else {
			out[i] = probeStmt{read: &major[r.Intn(len(major))], class: 0}
		}
	}
	return out
}
