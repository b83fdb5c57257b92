package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"hique"
	"hique/internal/enginetest"
)

// TestMixedReadWriteWorkload drives concurrent parameterized INSERTs,
// DELETEs, and point SELECTs through the HTTP server on every engine,
// then checks the deterministic final row count and — on the default
// engine — that the plan cache served the repeated shapes. Run with
// -race (CI does), this is the write path's concurrency proof: writers
// serialise on the table writer lock while point reads overlap.
func TestMixedReadWriteWorkload(t *testing.T) {
	const (
		workers  = 4
		perW     = 60 // rows inserted per worker
		delEvery = 3  // every 3rd id deleted by its worker
	)
	for _, eng := range enginetest.DBEngines() {
		t.Run(eng.Name, func(t *testing.T) {
			db := hique.Open(hique.WithPlanCache(128), hique.WithEngine(eng.Engine))
			if err := db.CreateTable("events", hique.Int("id"), hique.Int("grp"), hique.Float("v")); err != nil {
				t.Fatal(err)
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

			var wg sync.WaitGroup
			errs := make(chan string, workers*2)
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					base := g * perW
					for i := 0; i < perW; i++ {
						id := base + i
						if code, out := post("INSERT INTO events VALUES (?, ?, ?)", id, g, float64(id)*0.5); code != http.StatusOK {
							errs <- fmt.Sprintf("insert %d: status %d body %v", id, code, out)
							return
						}
						// Interleave point reads with the writes; under
						// admission pressure a 503 is a legal answer.
						if code, _ := post("SELECT v FROM events WHERE id = ?", id); code != http.StatusOK && code != http.StatusServiceUnavailable {
							errs <- fmt.Sprintf("select %d: status %d", id, code)
							return
						}
						if id%delEvery == 0 {
							if code, out := post("DELETE FROM events WHERE id = ?", id); code != http.StatusOK {
								errs <- fmt.Sprintf("delete %d: status %d body %v", id, code, out)
								return
							}
							// Deleting again affects zero rows: each id is
							// owned by one worker, so this is deterministic.
							if _, out := post("DELETE FROM events WHERE id = ?", id); out["rows_affected"] != float64(0) {
								errs <- fmt.Sprintf("re-delete %d affected %v rows, want 0", id, out["rows_affected"])
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}

			// Deterministic final count: each worker deleted ceil(perW/3)
			// of its own rows.
			deleted := 0
			for i := 0; i < workers*perW; i++ {
				if i%delEvery == 0 {
					deleted++
				}
			}
			want := workers*perW - deleted
			code, out := post("SELECT COUNT(*) AS n FROM events")
			if code != http.StatusOK {
				t.Fatalf("final count: status %d body %v", code, out)
			}
			rows := out["rows"].([]any)
			if got := rows[0].([]any)[0]; got != float64(want) {
				t.Fatalf("final count = %v, want %d", got, want)
			}

			// The repeated INSERT/DELETE shapes must have hit the write-
			// plan cache; on the default engine the repeated SELECT
			// shape hits the read-plan cache too.
			st := db.Stats()
			minHits := uint64(workers*perW) / 2
			if st.WriteCache.Hits < minHits {
				t.Fatalf("write-plan cache hits = %d, want >= %d (repeated DML shapes must be served from cache): %+v",
					st.WriteCache.Hits, minHits, st.WriteCache)
			}
			// Read plans are invalidated by every write's version bump,
			// so their hit count depends on interleaving — assert only
			// that the repeated SELECT shape hit at all on the default
			// engine. (Write plans are immune to version bumps; the
			// strict bound above is theirs.)
			if eng.Engine == nil && st.Cache.Hits == 0 {
				t.Fatalf("compiled-query cache never hit: %+v", st.Cache)
			}
		})
	}
}
