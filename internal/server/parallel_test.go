package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hique"
	"hique/internal/codegen"
	"hique/internal/morsel"
)

// TestParallelQueryMixedWorkload drives concurrent batched DML against
// one table while other sessions run a parallel fused join+aggregation
// over it, through the HTTP server. Run with -race (CI does), this is
// the parallel execution path's concurrency proof: morsel workers read
// table pages under the same table read lock discipline as the serial
// path, so they interleave with the writer lock and the table-ID-
// ordered two-table locking without deadlock, and the final counts are
// deterministic.
func TestParallelQueryMixedWorkload(t *testing.T) {
	prev := codegen.SetParallelThreshold(1)
	defer codegen.SetParallelThreshold(prev)

	const (
		writers   = 3
		perW      = 40 // batched INSERT statements per writer (2 rows each)
		readers   = 3
		reads     = 25
		preloaded = 2000
	)
	db := hique.Open(hique.WithPlanCache(128), hique.WithParallelism(4))
	if err := db.CreateTable("fact", hique.Int("id"), hique.Int("k"), hique.Float("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("dim", hique.Int("k2"), hique.Int("bucket")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := db.Exec("INSERT INTO dim VALUES (?, ?)", i, i%7); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < preloaded; i += 4 {
		if _, err := db.Exec("INSERT INTO fact VALUES (?, ?, ?), (?, ?, ?), (?, ?, ?), (?, ?, ?)",
			i, i%50, float64(i)*0.25,
			i+1, (i+1)%50, float64(i+1)*0.25,
			i+2, (i+2)%50, float64(i+2)*0.25,
			i+3, (i+3)%50, float64(i+3)*0.25); err != nil {
			t.Fatal(err)
		}
	}

	s := New(db, Config{Workers: 8, QueueWait: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(sql string, params ...any) (int, map[string]any) {
		body, _ := json.Marshal(queryRequest{SQL: sql, Params: params})
		resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}

	q0, _ := morsel.Stats()
	var wg sync.WaitGroup
	errs := make(chan string, writers+readers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := 1_000_000 + g*10_000 // id range owned by this writer
			for i := 0; i < perW; i++ {
				a, b := base+2*i, base+2*i+1
				code, out := post("INSERT INTO fact VALUES (?, ?, ?), (?, ?, ?)",
					a, a%50, float64(a)*0.25, b, b%50, float64(b)*0.25)
				if code != http.StatusOK {
					errs <- fmt.Sprintf("insert %d: status %d body %v", a, code, out)
					return
				}
				if i%4 == 0 {
					// Delete the first row of the batch just written: owned
					// ids make the final count deterministic.
					if code, out := post("DELETE FROM fact WHERE id = ?", a); code != http.StatusOK {
						errs <- fmt.Sprintf("delete %d: status %d body %v", a, code, out)
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				// The headline pipeline: fused join + grouped aggregation,
				// running its staging scans in parallel morsels. Under
				// admission pressure a 503 is a legal answer.
				code, out := post("SELECT bucket, COUNT(*) AS n, SUM(v) AS s FROM fact, dim WHERE fact.k = dim.k2 GROUP BY bucket ORDER BY bucket")
				if code != http.StatusOK && code != http.StatusServiceUnavailable {
					errs <- fmt.Sprintf("join+agg read %d: status %d body %v", i, code, out)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	// Deterministic final count: preloaded + writers' inserts - deletes.
	deletes := writers * ((perW + 3) / 4)
	want := preloaded + writers*perW*2 - deletes
	code, out := post("SELECT COUNT(*) AS n FROM fact")
	if code != http.StatusOK {
		t.Fatalf("final count: status %d body %v", code, out)
	}
	rows := out["rows"].([]any)
	if got := rows[0].([]any)[0]; got != float64(want) {
		t.Fatalf("final count = %v, want %d", got, want)
	}

	// The readers' join+agg must actually have taken the parallel path.
	q1, _ := morsel.Stats()
	if q1 <= q0 {
		t.Fatalf("no parallel query executions recorded (%d -> %d)", q0, q1)
	}

	// And the counters surface on /metrics.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, metric := range []string{"hique_parallel_queries_total", "hique_morsels_total"} {
		found := false
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, metric+" ") {
				found = true
				if strings.TrimPrefix(line, metric+" ") == "0" {
					t.Errorf("%s is 0 after parallel executions", metric)
				}
			}
		}
		if !found {
			t.Errorf("metric %s not exposed", metric)
		}
	}
}

// TestParallelExplainAnalyzeOverHTTP pins the EXPLAIN ANALYZE JSON
// surface: a traced parallel execution reports its phases with worker
// counts and per-morsel row counts.
func TestParallelExplainAnalyzeOverHTTP(t *testing.T) {
	prev := codegen.SetParallelThreshold(1)
	defer codegen.SetParallelThreshold(prev)

	db := hique.Open(hique.WithParallelism(4))
	if err := db.CreateTable("pt", hique.Int("id"), hique.Float("v")); err != nil {
		t.Fatal(err)
	}
	// Enough rows that the scan splits into several page-range morsels
	// (a morsel targets morsel.Rows = 8192 tuples).
	for i := 0; i < 20000; i += 8 {
		args := make([]any, 0, 16)
		for k := i; k < i+8; k++ {
			args = append(args, k, float64(k))
		}
		if _, err := db.Exec("INSERT INTO pt VALUES (?, ?), (?, ?), (?, ?), (?, ?), (?, ?), (?, ?), (?, ?), (?, ?)", args...); err != nil {
			t.Fatal(err)
		}
	}
	s := New(db, Config{Workers: 4, QueueWait: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(queryRequest{SQL: "EXPLAIN ANALYZE SELECT id, v FROM pt WHERE id >= 10"})
	resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ar analyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(ar.Parallel) == 0 {
		t.Fatalf("no parallel phases in analyze response: %+v", ar)
	}
	if ar.Path != "fused" || ar.Workers != 4 {
		t.Errorf("path = %q workers = %d, want the fused scan compiled for 4 workers", ar.Path, ar.Workers)
	}
	ph := ar.Parallel[0]
	if ph.Stage == "" || ph.Workers < 1 || len(ph.MorselRows) == 0 {
		t.Fatalf("malformed parallel phase %+v", ph)
	}
}
