package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hique"
)

func testDB(t *testing.T) *hique.DB {
	t.Helper()
	db := hique.Open(hique.WithPlanCache(32))
	if err := db.CreateTable("items", hique.Int("id"), hique.Int("grp"), hique.Float("price")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := db.Insert("items", int64(i), int64(i%5), float64(i)*1.5); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func postQuery(t *testing.T, ts *httptest.Server, sql, session string) (*http.Response, queryResponse, errorResponse) {
	t.Helper()
	body, _ := json.Marshal(queryRequest{SQL: sql})
	req, err := http.NewRequest("POST", ts.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if session != "" {
		req.Header.Set(SessionHeader, session)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ok queryResponse
	var bad errorResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ok); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := json.NewDecoder(resp.Body).Decode(&bad); err != nil {
			t.Fatal(err)
		}
	}
	return resp, ok, bad
}

func TestQueryEndpoint(t *testing.T) {
	s := New(testDB(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, ok, _ := postQuery(t, ts, "SELECT grp, COUNT(*) AS n FROM items GROUP BY grp ORDER BY grp", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(ok.Columns) != 2 || ok.Columns[0] != "grp" {
		t.Fatalf("columns = %v", ok.Columns)
	}
	if ok.RowCount != 5 {
		t.Fatalf("rows = %d, want 5", ok.RowCount)
	}
	// Each of the 5 groups holds 40 of the 200 rows.
	if n, okCast := ok.Rows[0][1].(float64); !okCast || n != 40 {
		t.Fatalf("group count = %v, want 40", ok.Rows[0][1])
	}
	if ok.Session == "" {
		t.Fatal("no session assigned")
	}

	// Same session re-presented: the registry should not grow.
	postQuery(t, ts, "SELECT id FROM items WHERE id < 3", ok.Session)
	if got := s.sessions.Len(); got != 1 {
		t.Fatalf("sessions = %d, want 1", got)
	}

	// Unknown client-supplied IDs are never adopted: the server mints
	// its own (no fixation, no unbounded client-controlled growth).
	_, ok2, _ := postQuery(t, ts, "SELECT id FROM items WHERE id < 3", "attacker-chosen-id")
	if ok2.Session == "attacker-chosen-id" || ok2.Session == "" {
		t.Fatalf("session = %q, want a fresh server-minted ID", ok2.Session)
	}
}

func TestQueryErrors(t *testing.T) {
	s := New(testDB(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _, bad := postQuery(t, ts, "SELECT id FROM nope", "")
	if resp.StatusCode != http.StatusUnprocessableEntity || bad.Error == "" {
		t.Fatalf("status = %d, err = %q", resp.StatusCode, bad.Error)
	}
	resp, _, _ = postQuery(t, ts, "   ", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty sql status = %d", resp.StatusCode)
	}
	r2, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json status = %d", r2.StatusCode)
	}
}

// TestNonFiniteResultAnswers422 pins that a result encoding/json cannot
// encode — a row holding NaN or an infinity — answers 422 with the
// reason and counts as an error, not 200 with an empty body.
func TestNonFiniteResultAnswers422(t *testing.T) {
	s := New(testDB(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// price is 0 at id 0 and 1.5 at id 1: NaN and +Inf.
	resp, _, bad := postQuery(t, ts, "SELECT id, price / 0.0 AS x FROM items WHERE id < 2", "")
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(bad.Error, "JSON") {
		t.Fatalf("status = %d, err = %q; want 422 naming the JSON encoding", resp.StatusCode, bad.Error)
	}
	if got := s.errors.Load(); got != 1 {
		t.Errorf("errors counted = %d, want 1", got)
	}
	resp, ok, _ := postQuery(t, ts, "SELECT id, price / 2.0 AS x FROM items WHERE id < 2", "")
	if resp.StatusCode != http.StatusOK || ok.RowCount != 2 {
		t.Fatalf("finite result after the refused one: status %d, %d rows", resp.StatusCode, ok.RowCount)
	}
}

func TestConcurrentQueries(t *testing.T) {
	s := New(testDB(t), Config{Workers: 8, QueueWait: 5 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const goroutines = 8
	const perG = 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				q := fmt.Sprintf("SELECT id, price FROM items WHERE grp = %d", (g+i)%5)
				body, _ := json.Marshal(queryRequest{SQL: q})
				resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var qr queryResponse
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
				if qr.RowCount != 40 {
					errs <- fmt.Errorf("rows = %d, want 40", qr.RowCount)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.queries.Load(); got != goroutines*perG {
		t.Fatalf("queries = %d, want %d", got, goroutines*perG)
	}
}

func TestPoolSaturation(t *testing.T) {
	p := NewPool(2, 0)
	block := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = p.Do(func() { started <- struct{}{}; <-block })
		}()
	}
	<-started
	<-started
	if err := p.Do(func() {}); err != ErrSaturated {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
	if p.InFlight() != 2 {
		t.Fatalf("in-flight = %d", p.InFlight())
	}
	close(block)
	wg.Wait()
	if err := p.Do(func() {}); err != nil {
		t.Fatalf("post-drain Do: %v", err)
	}
	if p.Rejected() != 1 || p.Admitted() != 3 {
		t.Fatalf("admitted/rejected = %d/%d, want 3/1", p.Admitted(), p.Rejected())
	}
}

func TestSaturationHTTP(t *testing.T) {
	db := testDB(t)
	s := New(db, Config{Workers: 1, QueueWait: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the only worker slot out-of-band, then watch a request bounce.
	block := make(chan struct{})
	held := make(chan struct{})
	go s.pool.Do(func() { close(held); <-block })
	<-held
	resp, _, _ := postQuery(t, ts, "SELECT id FROM items", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("missing Retry-After")
	}
	// Rejected requests must not mint sessions (overload would inflate
	// the registry).
	if got := s.sessions.Len(); got != 0 {
		t.Fatalf("sessions after rejection = %d, want 0", got)
	}
	close(block)
}

func TestOversizedBodyRejected(t *testing.T) {
	s := New(testDB(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := fmt.Sprintf(`{"sql":"SELECT id FROM items -- %s"}`, strings.Repeat("x", maxQueryBody))
	resp, err := ts.Client().Post(ts.URL+"/query", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestStatsAndTables(t *testing.T) {
	db := testDB(t)
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postQuery(t, ts, "SELECT id FROM items", "")
	postQuery(t, ts, "SELECT id FROM items", "") // warm hit

	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Queries != 2 || !st.DB.CacheEnabled {
		t.Fatalf("stats = %+v", st)
	}
	if st.DB.Cache.Hits < 1 {
		t.Fatalf("cache hits = %d, want >= 1", st.DB.Cache.Hits)
	}

	resp, err = ts.Client().Get(ts.URL + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	var tables []tableInfo
	if err := json.NewDecoder(resp.Body).Decode(&tables); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(tables) != 1 || tables[0].Name != "items" || tables[0].Rows != 200 {
		t.Fatalf("tables = %+v", tables)
	}
	if len(tables[0].Columns) != 3 {
		t.Fatalf("columns = %v", tables[0].Columns)
	}
}
