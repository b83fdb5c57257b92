package hique

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// engineDumps runs a canonical query set under every engine, each a DB
// opened over db's catalogue, and renders the results by engine name;
// recovered state must reproduce these byte-identically.
func engineDumps(t *testing.T, db *DB) map[string]string {
	t.Helper()
	queries := []string{
		"SELECT k, v, s FROM kv",
		"SELECT k, v FROM kv WHERE k >= 10",
		"SELECT COUNT(*), SUM(v) FROM kv",
	}
	dbs := engineDBs(db.Catalog())
	dumps := make(map[string]string, len(dbs))
	for _, e := range dbs {
		var b strings.Builder
		for _, q := range queries {
			res, err := e.Query(q)
			if err != nil {
				t.Fatalf("engine %s: %s: %v", e.name, q, err)
			}
			fmt.Fprintf(&b, "%s: %v\n", q, res.Rows)
		}
		dumps[e.name] = b.String()
		if dumps[e.name] != dumps[dbs[0].name] {
			t.Fatalf("engines disagree before any recovery:\n%s: %s\n%s: %s",
				dbs[0].name, dumps[dbs[0].name], e.name, dumps[e.name])
		}
	}
	return dumps
}

// requireSameDumps diffs two engine dump sets.
func requireSameDumps(t *testing.T, want, got map[string]string) {
	t.Helper()
	for e := range want {
		if got[e] != want[e] {
			t.Fatalf("engine %s diverged after recovery:\nbefore: %s\nafter:  %s", e, want[e], got[e])
		}
	}
}

// seedKV creates the kv table with an index and a first batch of rows.
func seedKV(t *testing.T, db *DB) {
	t.Helper()
	if err := db.CreateTable("kv", Int("k"), Float("v"), Char("s", 8)); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex("kv", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO kv VALUES (1, 1.5, 'aa'), (2, 2.5, 'bb'), (3, 3.5, 'cc')"); err != nil {
		t.Fatal(err)
	}
}

func TestDurabilityReplayAfterCrash(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(dir, WithPlanCache(32))
	if err != nil {
		t.Fatal(err)
	}
	seedKV(t, db)
	// Exercise every record type: parameterized batched insert, Go-API
	// insert, delete, update.
	for i := 10; i < 30; i += 2 {
		if _, err := db.Exec("INSERT INTO kv VALUES (?, ?, ?), (?, ?, ?)",
			i, float64(i)/2, fmt.Sprintf("r%d", i), i+1, float64(i+1)/2, fmt.Sprintf("r%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert("kv", 99, 9.75, "direct"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DELETE FROM kv WHERE k = ?", 14); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("UPDATE kv SET v = ?, s = ? WHERE k >= ?", 0.25, "upd", 20); err != nil {
		t.Fatal(err)
	}
	want := engineDumps(t, db)

	// Crash: reopen the directory without closing (the first DB is
	// abandoned; every acknowledged record is in the OS page cache).
	db2, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	checkStats(t, db2)
	rs := db2.RecoveryStats()
	if rs.ReplayedRecords == 0 {
		t.Fatal("expected WAL replay, got none")
	}
	if rs.ReplayErrors != 0 {
		t.Fatalf("replay errors: %d", rs.ReplayErrors)
	}
	requireSameDumps(t, want, engineDumps(t, db2))
	// The replayed index serves probes (key 99 was caught by the
	// UPDATE ... WHERE k >= 20 above).
	res, err := db2.Query("SELECT v FROM kv WHERE k = ?", 99)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != 0.25 {
		t.Fatalf("index probe after replay: rows=%v err=%v", res, err)
	}
}

func TestDurabilityCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	seedKV(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Tail past the checkpoint.
	if _, err := db.Exec("INSERT INTO kv VALUES (50, 5.0, 'tail')"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("UPDATE kv SET v = ? WHERE k = ?", 8.0, 1); err != nil {
		t.Fatal(err)
	}
	want := engineDumps(t, db)

	db2, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	checkStats(t, db2)
	rs := db2.RecoveryStats()
	if rs.SnapshotLSN == 0 {
		t.Fatal("recovery ignored the checkpoint snapshot")
	}
	if rs.ReplayedRecords != 2 {
		t.Fatalf("replayed %d records past the snapshot, want 2", rs.ReplayedRecords)
	}
	requireSameDumps(t, want, engineDumps(t, db2))
}

func TestDurabilityCleanClose(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(dir, WithFsync(FsyncOff))
	if err != nil {
		t.Fatal(err)
	}
	seedKV(t, db)
	want := engineDumps(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close must be idempotent: %v", err)
	}

	db2, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	checkStats(t, db2)
	// Close checkpointed, so recovery is snapshot-only.
	if rs := db2.RecoveryStats(); rs.ReplayedRecords != 0 {
		t.Fatalf("clean close still replayed %d records", rs.ReplayedRecords)
	}
	requireSameDumps(t, want, engineDumps(t, db2))
}

func TestDurabilityTornTailAtOpen(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	seedKV(t, db)
	want := engineDumps(t, db)

	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x37, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var warnings []string
	db2, err := OpenDurable(dir, WithDurabilityLogf(func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}))
	if err != nil {
		t.Fatalf("open over a torn tail must succeed, got %v", err)
	}
	defer db2.Close()
	checkStats(t, db2)
	if len(warnings) == 0 {
		t.Fatal("expected a torn-tail warning")
	}
	requireSameDumps(t, want, engineDumps(t, db2))
}

// TestDurabilityConcurrentWithCheckpoints is the -race recovery
// concurrency test: batched INSERT/DELETE/UPDATE writers race
// background checkpoints, then the store reopens and every engine must
// agree byte-for-byte with the pre-close state.
func TestDurabilityConcurrentWithCheckpoints(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(dir,
		WithPlanCache(64),
		WithFsync(FsyncInterval),
		WithFsyncInterval(2*time.Millisecond),
		WithCheckpointInterval(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	seedKV(t, db)

	const writers = 4
	const perWriter = 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := 1000 * (w + 1)
			for i := 0; i < perWriter; i++ {
				k := base + i
				switch i % 4 {
				case 0, 1:
					if _, err := db.Exec("INSERT INTO kv VALUES (?, ?, ?), (?, ?, ?)",
						k, float64(k)/4, "w", k+500, float64(k)/8, "x"); err != nil {
						t.Errorf("insert: %v", err)
						return
					}
				case 2:
					if _, err := db.Exec("UPDATE kv SET v = ? WHERE k = ?", float64(i), base+i-1); err != nil {
						t.Errorf("update: %v", err)
						return
					}
				case 3:
					if _, err := db.Exec("DELETE FROM kv WHERE k = ?", base+i-2); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(w)
	}
	// Explicit checkpoints race the background cadence too.
	stop := make(chan struct{})
	var ckWg sync.WaitGroup
	ckWg.Add(1)
	go func() {
		defer ckWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := db.Checkpoint(); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
				time.Sleep(3 * time.Millisecond)
			}
		}
	}()
	wg.Wait()
	close(stop)
	ckWg.Wait()
	if t.Failed() {
		return
	}

	nBefore, err := db.RowCount("kv")
	if err != nil {
		t.Fatal(err)
	}
	want := engineDumps(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	checkStats(t, db2)
	nAfter, err := db2.RowCount("kv")
	if err != nil {
		t.Fatal(err)
	}
	if nAfter != nBefore {
		t.Fatalf("row count changed across recovery: %d -> %d", nBefore, nAfter)
	}
	requireSameDumps(t, want, engineDumps(t, db2))
}

func TestDurabilitySeedRules(t *testing.T) {
	dir := t.TempDir()
	if DirInitialized(dir) {
		t.Fatal("fresh dir reported initialized")
	}
	// A fresh directory accepts a seed catalogue and checkpoints it
	// immediately (the bootstrap snapshot).
	seed := Open()
	if err := seed.CreateTable("kv", Int("k"), Float("v"), Char("s", 8)); err != nil {
		t.Fatal(err)
	}
	if err := seed.Insert("kv", 7, 0.5, "seed"); err != nil {
		t.Fatal(err)
	}
	db, err := OpenDurable(dir, WithCatalog(seed.Catalog()))
	if err != nil {
		t.Fatal(err)
	}
	if !DirInitialized(dir) {
		t.Fatal("seeded open left no bootstrap snapshot")
	}
	want := engineDumps(t, db)
	// An initialized directory refuses a second seed...
	if _, err := OpenDurable(dir, WithCatalog(seed.Catalog())); err == nil {
		t.Fatal("re-seeding an initialized directory must fail")
	}
	// ...but opens fine without one, recovering the seed itself even
	// though the seeding process never wrote a WAL record for it.
	db2, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	checkStats(t, db2)
	requireSameDumps(t, want, engineDumps(t, db2))
	_ = db
}

func TestDurabilityFsyncModes(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncAlways, FsyncInterval, FsyncOff} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			db, err := OpenDurable(dir, WithFsync(mode), WithFsyncInterval(time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			seedKV(t, db)
			want := engineDumps(t, db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2, err := OpenDurable(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			checkStats(t, db2)
			requireSameDumps(t, want, engineDumps(t, db2))
		})
	}
}
