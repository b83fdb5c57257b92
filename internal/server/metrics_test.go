package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hique"
)

// scrapeMetrics fetches GET /metrics and returns the raw exposition text.
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics content type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sampleLine matches one exposition sample: name, optional label block,
// and a value. The same validation the CI workflow applies.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9.e+\-Inf]+|NaN)$`)

// parseExposition validates the text format line by line and returns
// every sample as fullname{labels} -> value.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		line := sc.Text()
		n++
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", n)
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment form %q", n, line)
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("line %d: malformed sample %q", n, line)
		}
		sp := strings.LastIndexByte(line, ' ')
		key, vs := line[:sp], line[sp+1:]
		var v float64
		if vs == "+Inf" {
			v = 1e308
		} else {
			f, err := strconv.ParseFloat(vs, 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q", n, vs)
			}
			v = f
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("line %d: duplicate sample %q", n, key)
		}
		samples[key] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// sumSamples adds every sample whose series name (and labels) match the
// given prefix.
func sumSamples(samples map[string]float64, prefix string) float64 {
	total := 0.0
	for k, v := range samples {
		if strings.HasPrefix(k, prefix) {
			total += v
		}
	}
	return total
}

// TestMetricsReconcile drives a concurrent mixed read/DML workload over
// HTTP and asserts the /metrics totals agree with the per-response counts
// the clients observed.
func TestMetricsReconcile(t *testing.T) {
	db := testDB(t)
	if err := db.BuildIndex("items", "id"); err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{Workers: 8, QueueWait: 5 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type stmt struct {
		sql    string
		params []any
		dml    bool
		bad    bool // expects a 400 bind error
	}
	stmts := []stmt{
		{sql: "SELECT id, price FROM items WHERE id = ?", params: []any{7}},
		{sql: "SELECT id FROM items WHERE price > 100.0"},
		{sql: "SELECT grp, COUNT(*), SUM(price) FROM items GROUP BY grp"},
		{sql: "INSERT INTO items VALUES (?, ?, ?)", params: []any{10_000, 1, 2.5}, dml: true},
		{sql: "SELECT id FROM items WHERE id = ?", params: []any{"not-an-int"}, bad: true},
	}

	const workers = 8
	const perWorker = 25
	var ok2xx, errResp atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				st := stmts[(w+i)%len(stmts)]
				body, _ := json.Marshal(queryRequest{SQL: st.sql, Params: st.params})
				resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					ok2xx.Add(1)
				case st.bad && resp.StatusCode == http.StatusBadRequest:
					errResp.Add(1)
				default:
					t.Errorf("stmt %q: status %d", st.sql, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	total := ok2xx.Load() + errResp.Load()
	if total != workers*perWorker {
		t.Fatalf("client accounting broken: %d responses, want %d", total, workers*perWorker)
	}

	samples := parseExposition(t, scrapeMetrics(t, ts))

	if got := samples["hique_server_queries_total"]; got != float64(total) {
		t.Errorf("hique_server_queries_total = %v, want %d", got, total)
	}
	if got := samples["hique_server_errors_total"]; got != float64(errResp.Load()) {
		t.Errorf("hique_server_errors_total = %v, want %d", got, errResp.Load())
	}
	if got := samples["hique_pool_admitted_total"]; got != float64(total) {
		t.Errorf("hique_pool_admitted_total = %v, want %d", got, total)
	}
	// Every admitted statement reaches the DB layer exactly once.
	if got := samples["hique_queries_total"]; got != float64(total) {
		t.Errorf("hique_queries_total = %v, want %d", got, total)
	}
	if got := samples["hique_bind_errors_total"]; got != float64(errResp.Load()) {
		t.Errorf("hique_bind_errors_total = %v, want %d", got, errResp.Load())
	}
	// Latency histograms observe exactly the successful statements: the
	// sum of _count across every class/path/temp series must equal the
	// client-observed 2xx count.
	if got := sumSamples(samples, "hique_query_duration_seconds_count"); got != float64(ok2xx.Load()) {
		t.Errorf("sum hique_query_duration_seconds_count = %v, want %d", got, ok2xx.Load())
	}
	// The workload repeats five shapes: the warm point selects must have
	// landed in the fused/warm series.
	warmFused := sumSamples(samples, `hique_query_duration_seconds_count{class="point",path="fused",temp="warm"}`)
	if warmFused == 0 {
		t.Error("no warm fused point-query observations recorded")
	}
	// The durability families must be present even on an in-memory DB
	// (they read zeros) so dashboards never lose the series.
	for _, name := range []string{
		"hique_plan_cache_hits_total", "hique_plan_cache_misses_total",
		"hique_arena_pages_recycled_total", "hique_lock_wait_seconds_count",
		"hique_pool_workers", "hique_sessions",
		"hique_wal_appended_total", "hique_wal_fsync_seconds_count",
		"hique_checkpoints_total", "hique_recovery_replayed_records",
	} {
		if _, ok := findSample(samples, name); !ok {
			t.Errorf("metric %s missing from exposition", name)
		}
	}
}

func findSample(samples map[string]float64, name string) (float64, bool) {
	for k, v := range samples {
		if k == name || strings.HasPrefix(k, name+"{") {
			return v, true
		}
	}
	return 0, false
}

// TestMetricsHistogramMonotone asserts, for every histogram series in the
// exposition, strictly increasing le bounds, non-decreasing cumulative
// bucket counts, and a +Inf bucket equal to _count.
func TestMetricsHistogramMonotone(t *testing.T) {
	db := testDB(t)
	s := New(db, Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 50; i++ {
		body, _ := json.Marshal(queryRequest{SQL: "SELECT id FROM items WHERE id = ?", Params: []any{i}})
		resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	text := scrapeMetrics(t, ts)
	type bucket struct {
		le  float64
		cum float64
	}
	series := map[string][]bucket{}
	counts := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		key, vs := line[:sp], line[sp+1:]
		v, _ := strconv.ParseFloat(vs, 64)
		switch {
		case strings.Contains(key, "_bucket"):
			leStart := strings.LastIndex(key, `le="`)
			if leStart < 0 {
				t.Fatalf("bucket sample without le: %q", line)
			}
			leStr := key[leStart+4 : strings.LastIndexByte(key, '"')]
			le := 1e308
			if leStr != "+Inf" {
				le, _ = strconv.ParseFloat(leStr, 64)
			}
			base := strings.Replace(key[:strings.LastIndexByte(key, '}')+1], "_bucket", "", 1)
			base = strings.Replace(base, `le="`+leStr+`"`, "", 1)
			base = strings.NewReplacer(",,", ",", "{,", "{", ",}", "}", "{}", "").Replace(base)
			series[base] = append(series[base], bucket{le: le, cum: v})
		case strings.Contains(key, "_count"):
			counts[strings.Replace(key, "_count", "", 1)] = v
		}
	}
	if len(series) == 0 {
		t.Fatal("no histogram series found")
	}
	for name, bs := range series {
		for i := 1; i < len(bs); i++ {
			if bs[i].le <= bs[i-1].le {
				t.Errorf("%s: le not strictly increasing at %d (%v <= %v)", name, i, bs[i].le, bs[i-1].le)
			}
			if bs[i].cum < bs[i-1].cum {
				t.Errorf("%s: cumulative count decreases at %d (%v < %v)", name, i, bs[i].cum, bs[i-1].cum)
			}
		}
		last := bs[len(bs)-1]
		if last.le != 1e308 {
			t.Errorf("%s: last bucket is not +Inf", name)
		}
		if want, ok := counts[name]; !ok || last.cum != want {
			t.Errorf("%s: +Inf bucket %v != _count %v", name, last.cum, want)
		}
	}
}

// TestSlowQueryLogRedacts asserts the slow-query log fires on a
// threshold-exceeding statement and never carries raw literal or
// parameter values.
func TestSlowQueryLogRedacts(t *testing.T) {
	db := testDB(t)
	var buf syncBuffer
	s := New(db, Config{Workers: 2, SlowQueryThreshold: 1, SlowQueryLog: &buf})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, q := range []queryRequest{
		{SQL: "SELECT id FROM items WHERE id = 424242"},
		{SQL: "SELECT id FROM items WHERE id = ?", Params: []any{171717}},
		{SQL: "INSERT INTO items VALUES (31337, 1, 99.25)"},
	} {
		body, _ := json.Marshal(q)
		resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: status %d", q.SQL, resp.StatusCode)
		}
	}

	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("slow log has %d lines, want 3:\n%s", len(lines), out)
	}
	for _, leak := range []string{"424242", "171717", "31337", "99.25"} {
		if strings.Contains(out, leak) {
			t.Errorf("slow log leaks literal %q:\n%s", leak, out)
		}
	}
	var entry slowEntry
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("slow log line is not JSON: %v", err)
	}
	if entry.Shape != "select id from items where id = ?" {
		t.Errorf("shape = %q", entry.Shape)
	}
	if entry.Kind != "select" || entry.ElapsedUs < 0 {
		t.Errorf("bad entry: %+v", entry)
	}
	var ins slowEntry
	if err := json.Unmarshal([]byte(lines[2]), &ins); err != nil {
		t.Fatal(err)
	}
	if ins.Kind != "dml" || strings.Contains(ins.Shape, "31337") {
		t.Errorf("bad dml entry: %+v", ins)
	}
}

// TestAnalyzeEndpoint exercises EXPLAIN ANALYZE through POST /query.
func TestAnalyzeEndpoint(t *testing.T) {
	db := testDB(t)
	s := New(db, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(queryRequest{
		SQL:    "EXPLAIN ANALYZE SELECT grp, COUNT(*) FROM items WHERE id < ? GROUP BY grp",
		Params: []any{100},
	})
	resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var ar analyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	if ar.Rows != 5 {
		t.Errorf("rows = %d, want 5 groups", ar.Rows)
	}
	if ar.Plan == "" || len(ar.Stages) == 0 {
		t.Fatalf("missing plan or stages: %+v", ar)
	}
	// A single-table aggregation is a fused pipeline; 200 rows compile serial.
	if ar.Path != "fused" || ar.Workers != 1 {
		t.Errorf("path = %q workers = %d, want fused/1", ar.Path, ar.Workers)
	}
	var agg *hique.StageStats
	for i := range ar.Stages {
		if ar.Stages[i].Name == "aggregate" {
			agg = &ar.Stages[i]
		}
	}
	if agg == nil {
		t.Fatalf("no aggregate stage in %+v", ar.Stages)
	}
	// RowsOut is the cross-engine invariant; RowsIn is advisory (the fused
	// engine applies the filter inside the stage, so it sees all 200 rows).
	if agg.RowsOut != 5 {
		t.Errorf("aggregate stage = %+v, want RowsOut 5", *agg)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer (the slow log writer is
// called from worker goroutines).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
