package crashtest

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"hique"
	"hique/internal/enginetest"
	"hique/internal/wal"
)

// The child/parent protocol: the parent re-execs the test binary with
// HIQUE_CRASH_CHILD set; TestMain diverts the child into childMain,
// which opens the shared data directory, executes the deterministic
// statement list from its start index, and prints "ack <i>" after each
// statement the database has acknowledged as durable.
func TestMain(m *testing.M) {
	if os.Getenv("HIQUE_CRASH_CHILD") != "" {
		childMain()
		return
	}
	os.Exit(m.Run())
}

// stmt is one entry in the deterministic workload. Parent, child, and
// the parent's in-memory model all apply the identical list.
type stmt struct {
	ddl bool   // CREATE TABLE kv (statement 0 only)
	idx bool   // BuildIndex(kv.k) — idempotent, safe to replay
	sql string // otherwise an INSERT/DELETE/UPDATE statement
}

func (s stmt) apply(db *hique.DB) error {
	switch {
	case s.ddl:
		return db.CreateTable("kv", hique.Int("k"), hique.Float("v"), hique.Char("s", 8))
	case s.idx:
		return db.BuildIndex("kv", "k")
	default:
		_, err := db.Exec(s.sql)
		return err
	}
}

// genStatements derives the workload from the seed: a CREATE TABLE,
// two index builds mid-stream, and a literal-valued mix of batched
// inserts, key deletes, and range updates over a small key space so
// the write statements actually collide.
func genStatements(seed int64, n int) []stmt {
	rng := rand.New(rand.NewSource(seed))
	stmts := []stmt{{ddl: true}}
	for i := 1; i < n; i++ {
		if i == n/4 || i == n/2 {
			stmts = append(stmts, stmt{idx: true})
			continue
		}
		switch r := rng.Intn(10); {
		case r < 6: // batched insert, 1..3 rows
			rows := 1 + rng.Intn(3)
			vals := make([]string, rows)
			for j := range vals {
				k := rng.Intn(400)
				vals[j] = fmt.Sprintf("(%d, %d.25, 'r%d')", k, rng.Intn(50), k%100)
			}
			stmts = append(stmts, stmt{sql: "INSERT INTO kv VALUES " + strings.Join(vals, ", ")})
		case r < 8:
			stmts = append(stmts, stmt{sql: fmt.Sprintf("DELETE FROM kv WHERE k = %d", rng.Intn(400))})
		default:
			stmts = append(stmts, stmt{sql: fmt.Sprintf("UPDATE kv SET v = %d.5, s = 'u%d' WHERE k >= %d",
				rng.Intn(50), rng.Intn(90), 250+rng.Intn(150))})
		}
	}
	return stmts
}

func childMain() {
	dir := os.Getenv("HIQUE_CRASH_DIR")
	seed, _ := strconv.ParseInt(os.Getenv("HIQUE_CRASH_SEED"), 10, 64)
	start, _ := strconv.Atoi(os.Getenv("HIQUE_CRASH_START"))
	n, _ := strconv.Atoi(os.Getenv("HIQUE_CRASH_N"))
	opts := []hique.Option{
		hique.WithFsync(hique.FsyncAlways),
		hique.WithDurabilityLogf(func(string, ...any) {}),
	}
	if ms, _ := strconv.Atoi(os.Getenv("HIQUE_CRASH_CKPT_MS")); ms > 0 {
		opts = append(opts, hique.WithCheckpointInterval(time.Duration(ms)*time.Millisecond))
	}
	if b, _ := strconv.ParseInt(os.Getenv("HIQUE_CRASH_TEAR"), 10, 64); b > 0 {
		opts = append(opts, hique.WithWALFS(wal.NewFaultFS(nil, wal.FaultTear, b)))
	}
	if b, _ := strconv.ParseInt(os.Getenv("HIQUE_CRASH_DROP"), 10, 64); b > 0 {
		opts = append(opts, hique.WithWALFS(wal.NewFaultFS(nil, wal.FaultDrop, b)))
	}
	db, err := hique.OpenDurable(dir, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "child open: %v\n", err)
		os.Exit(2)
	}
	for i, s := range genStatements(seed, n)[start:] {
		if err := s.apply(db); err != nil {
			// Expected once an injected fault trips: the statement is
			// not acknowledged and the child stops, like a real server
			// falling over on a dying disk.
			fmt.Printf("fault %d %v\n", start+i, err)
			os.Exit(3)
		}
		fmt.Printf("ack %d\n", start+i)
	}
	if err := db.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "child close: %v\n", err)
		os.Exit(2)
	}
	fmt.Println("done")
	os.Exit(0)
}

// runChild spawns the ingest child and returns how many statements it
// acknowledged in total (absolute count from the start of the
// workload) and whether it shut down cleanly. killAfter is the
// absolute acknowledgement count at which the parent SIGKILLs it; pass
// a count past the workload end to let injected faults or completion
// stop it instead.
func runChild(t *testing.T, dir string, seed int64, n, start, killAfter int, extraEnv ...string) (acked int, clean bool) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"HIQUE_CRASH_CHILD=1",
		"HIQUE_CRASH_DIR="+dir,
		fmt.Sprintf("HIQUE_CRASH_SEED=%d", seed),
		fmt.Sprintf("HIQUE_CRASH_N=%d", n),
		fmt.Sprintf("HIQUE_CRASH_START=%d", start),
	)
	cmd.Env = append(cmd.Env, extraEnv...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	acked = start
	faulted := false
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "ack "):
			i, _ := strconv.Atoi(line[4:])
			acked = i + 1
		case line == "done":
			clean = true
		case strings.HasPrefix(line, "fault "):
			faulted = true
		}
		if acked >= killAfter {
			cmd.Process.Kill()
			break
		}
	}
	cmd.Wait() // non-nil after SIGKILL or a fault exit; state checks follow
	if !clean && !faulted && acked < killAfter {
		t.Fatalf("child died unexpectedly at ack=%d: %s", acked, stderr.String())
	}
	return acked, clean
}

// dump renders the full kv state (heap order included) on db's engine;
// "<no-table>" stands for the pre-DDL state.
func dump(t *testing.T, db *hique.DB) string {
	t.Helper()
	res, err := db.Query("SELECT k, v, s FROM kv")
	if err != nil {
		if strings.Contains(err.Error(), "kv") {
			return "<no-table>"
		}
		t.Fatalf("dump: %v", err)
	}
	return fmt.Sprintf("%v", res.Rows)
}

// dumpEngine renders the same state read through engine e: a DB opened
// over db's catalogue with e injected.
func dumpEngine(t *testing.T, db *hique.DB, e hique.Engine) string {
	t.Helper()
	return dump(t, hique.Open(hique.WithCatalog(db.Catalog()), hique.WithEngine(e)))
}

// verifyPrefix reopens the crashed directory and locates the unique
// statement count k whose model state matches the recovered state,
// advancing the shared model to k. Every recovery must be SOME prefix;
// rounds where the device never lied (SIGKILL, torn writes) must also
// satisfy k >= acked — nothing acknowledged may be lost. The recovered
// state must agree byte-for-byte with the model under all five
// engines, and its statistics must equal a recompute over the heap.
// Returns k, with the directory checkpointed and closed so
// the next round resumes from statement k.
func verifyPrefix(t *testing.T, dir string, stmts []stmt, model *hique.DB, kStart, acked int, ackedDurable bool) int {
	t.Helper()
	db, err := hique.OpenDurable(dir, hique.WithDurabilityLogf(t.Logf))
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer db.Close()
	// Replay maintains statistics through the live write path's apply
	// step; they must equal a from-scratch recompute over the heap.
	if err := db.Catalog().CheckStats(); err != nil {
		t.Fatalf("recovered statistics: %v", err)
	}
	got := dump(t, db)
	k := kStart
	for dump(t, model) != got {
		if k >= len(stmts) {
			t.Fatalf("recovered state matches no prefix of the workload (searched from %d)", kStart)
		}
		if err := stmts[k].apply(model); err != nil {
			t.Fatalf("model statement %d: %v", k, err)
		}
		k++
	}
	// The scan stops at the FIRST matching prefix; statements that
	// matched no rows leave the state unchanged, so the true prefix may
	// extend further. When every acknowledged statement was fsynced,
	// push the model to the acknowledgement point — any statement that
	// changes the state before we get there was genuinely lost.
	for ackedDurable && k < acked {
		if err := stmts[k].apply(model); err != nil {
			t.Fatalf("model statement %d: %v", k, err)
		}
		k++
		if dump(t, model) != got {
			t.Fatalf("lost acknowledged statement %d: recovered state stops before acked=%d", k-1, acked)
		}
	}
	for _, e := range enginetest.DBEngines() {
		if w, g := dumpEngine(t, model, e.Engine), dumpEngine(t, db, e.Engine); g != w {
			t.Fatalf("engine %s disagrees with model at prefix %d:\nmodel:     %s\nrecovered: %s", e.Name, k, w, g)
		}
	}
	rs := db.RecoveryStats()
	t.Logf("  recovered prefix k=%d (acked=%d, snapshotLSN=%d, replayed=%d)",
		k, acked, rs.SnapshotLSN, rs.ReplayedRecords)
	return k
}

// TestCrashRecovery is the harness entry point. Every round crashes an
// ingest child a different way against the same data directory and
// proves recovery lands on a consistent acknowledged prefix. The seed
// is logged; export HIQUE_CRASH_SEED to replay a failure, and
// HIQUE_CRASH_KILLS to raise the SIGKILL round count in CI.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness re-execs child processes; skipped in -short")
	}
	seed := time.Now().UnixNano()
	if s := os.Getenv("HIQUE_CRASH_SEED"); s != "" {
		seed, _ = strconv.ParseInt(s, 10, 64)
	}
	kills := 3
	if s := os.Getenv("HIQUE_CRASH_KILLS"); s != "" {
		kills, _ = strconv.Atoi(s)
	}
	t.Logf("crash harness seed=%d (export HIQUE_CRASH_SEED=%d to reproduce)", seed, seed)

	const n = 120
	dir := t.TempDir()
	stmts := genStatements(seed, n)
	model := hique.Open()
	rng := rand.New(rand.NewSource(seed))
	k := 0

	// SIGKILL rounds: kill between statements (including during the
	// child's own recovery when the target lands on the current k).
	// Targets stay below a reserve so the fault rounds below always
	// have workload left to corrupt.
	const reserve = 50
	for round := 0; round < kills && k < n-reserve; round++ {
		target := k + rng.Intn(n-reserve-k) + 1
		acked, _ := runChild(t, dir, seed, n, k, target, "HIQUE_CRASH_CKPT_MS=20")
		t.Logf("kill round %d: started at %d, SIGKILL at ack %d", round, k, acked)
		k = verifyPrefix(t, dir, stmts, model, k, acked, true)
	}

	// Torn-write round: the WAL file tears mid-write after a byte
	// budget, then every later write and fsync fails. Acknowledged
	// statements were fsynced before the tear, so they must survive.
	if k < n {
		budget := 400 + rng.Int63n(400)
		acked, _ := runChild(t, dir, seed, n, k, n+1,
			fmt.Sprintf("HIQUE_CRASH_TEAR=%d", budget))
		t.Logf("tear round: started at %d, budget %d, stopped at ack %d", k, budget, acked)
		k = verifyPrefix(t, dir, stmts, model, k, acked, true)
	}

	// Lying-device round: past the budget the file silently discards
	// writes and reports fsync success, and the child is killed before
	// any checkpoint can save it. Acknowledged statements MAY be lost
	// — the guarantee that remains is a consistent prefix.
	if k < n {
		budget := 300 + rng.Int63n(300)
		target := k + rng.Intn(n-k) + 1
		acked, _ := runChild(t, dir, seed, n, k, target,
			fmt.Sprintf("HIQUE_CRASH_DROP=%d", budget))
		t.Logf("drop round: started at %d, budget %d, SIGKILL at ack %d", k, budget, acked)
		k = verifyPrefix(t, dir, stmts, model, k, acked, false)
	}

	// Final round: run to completion with a clean shutdown; recovery
	// must land exactly on the full workload.
	acked, clean := runChild(t, dir, seed, n, k, n+1, "HIQUE_CRASH_CKPT_MS=20")
	if !clean || acked != n {
		t.Fatalf("final round: clean=%v acked=%d, want clean completion of %d", clean, acked, n)
	}
	if k = verifyPrefix(t, dir, stmts, model, k, acked, true); k != n {
		t.Fatalf("final recovery stopped at prefix %d, want %d", k, n)
	}
}
