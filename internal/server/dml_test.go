package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hique"
	"hique/internal/dsm"
	"hique/internal/plan"
	"hique/internal/storage"
)

// postStmt posts a parameterized statement and decodes whichever body
// came back.
func postStmt(t *testing.T, ts *httptest.Server, sql string, params []any) (*http.Response, map[string]any) {
	t.Helper()
	body, _ := json.Marshal(queryRequest{SQL: sql, Params: params})
	resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestDMLEndpoint(t *testing.T) {
	db := hique.Open(hique.WithPlanCache(32))
	if err := db.CreateTable("kv", hique.Int("id"), hique.Float("v"), hique.Char("tag", 4)); err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Batched insert answers with the rows-affected shape (no rows key).
	resp, out := postStmt(t, ts, "INSERT INTO kv VALUES (1, 1.5, 'a'), (2, 2.5, 'b'), (3, 3.5, 'c')", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status = %d: %v", resp.StatusCode, out)
	}
	if out["rows_affected"] != float64(3) {
		t.Fatalf("rows_affected = %v", out["rows_affected"])
	}
	if _, hasRows := out["rows"]; hasRows {
		t.Fatalf("DML response carries a rows key: %v", out)
	}
	if out["session"] == "" {
		t.Fatal("no session assigned")
	}

	// Parameterized forms.
	if resp, out = postStmt(t, ts, "UPDATE kv SET v = ? WHERE id = ?", []any{9.5, 2}); resp.StatusCode != http.StatusOK || out["rows_affected"] != float64(1) {
		t.Fatalf("update: %d %v", resp.StatusCode, out)
	}
	if resp, out = postStmt(t, ts, "DELETE FROM kv WHERE id = ?", []any{1}); resp.StatusCode != http.StatusOK || out["rows_affected"] != float64(1) {
		t.Fatalf("delete: %d %v", resp.StatusCode, out)
	}

	// The same endpoint still serves reads, observing the writes.
	resp, out = postStmt(t, ts, "SELECT id, v FROM kv WHERE id = ?", []any{2})
	if resp.StatusCode != http.StatusOK || out["row_count"] != float64(1) {
		t.Fatalf("select: %d %v", resp.StatusCode, out)
	}
	rows := out["rows"].([]any)
	if row := rows[0].([]any); row[1] != 9.5 {
		t.Fatalf("updated value = %v", row)
	}

	// Error classes: bad parameter value = 400, statement errors = 422.
	if resp, _ = postStmt(t, ts, "DELETE FROM kv WHERE id = ?", []any{"nope"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("uncoercible param status = %d, want 400", resp.StatusCode)
	}
	if resp, _ = postStmt(t, ts, "INSERT INTO kv VALUES (?, ?, ?)", []any{1, 1.0, "toolong"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized param status = %d, want 400", resp.StatusCode)
	}
	resp, out = postStmt(t, ts, "INSERT INTO kv VALUES (9, 9.0, 'toolong')", nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("oversized literal status = %d, want 422", resp.StatusCode)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "CHAR(4)") {
		t.Fatalf("width error body = %v", out)
	}
	if resp, _ = postStmt(t, ts, "INSERT INTO missing VALUES (1)", nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown table status = %d, want 422", resp.StatusCode)
	}
}

// panicEngine is the column-store engine, except that a statement with an
// aggregation panics inside Execute.
type panicEngine struct{ hique.Engine }

func (e panicEngine) Execute(p *plan.Plan) (*storage.Table, error) {
	if p.Agg != nil {
		panic("panicEngine: aggregation")
	}
	return e.Engine.Execute(p)
}

// TestPanicStatementReturns422AndServerSurvives is the crash-proofing
// regression test: a statement that drives the engine into a panic
// answers 422 and the same server then answers a normal query — the
// process does not exit, the worker pool does not leak a slot, and the
// table locks release.
func TestPanicStatementReturns422AndServerSurvives(t *testing.T) {
	db := hique.Open(hique.WithEngine(panicEngine{dsm.NewEngine()}))
	if err := db.CreateTable("items", hique.Int("id"), hique.Float("price")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := db.Insert("items", int64(i), float64(i)+0.5); err != nil {
			t.Fatal(err)
		}
	}
	s := New(db, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, out := postStmt(t, ts, "SELECT price, COUNT(*) FROM items GROUP BY price", nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("panic statement status = %d, want 422 (body %v)", resp.StatusCode, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "panic") {
		t.Fatalf("error body %q does not mention the contained panic", out["error"])
	}

	// The very same server keeps serving reads and writes.
	for i := 0; i < 3; i++ {
		resp, out = postStmt(t, ts, "SELECT id FROM items WHERE id = 3", nil)
		if resp.StatusCode != http.StatusOK || out["row_count"] != float64(1) {
			t.Fatalf("follow-up query %d: status %d body %v", i, resp.StatusCode, out)
		}
	}
	if resp, out = postStmt(t, ts, "INSERT INTO items VALUES (100, 1.0)", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up insert: status %d body %v (a leaked reader lock would hang or fail here)", resp.StatusCode, out)
	}
	if s.pool.InFlight() != 0 {
		t.Fatalf("pool slots leaked: %d in flight", s.pool.InFlight())
	}
}
