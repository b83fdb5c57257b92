package hique

// Durability and crash recovery (DESIGN.md §9). A durable DB logs every
// mutating statement — DML and DDL — to a write-ahead log before the
// mutation becomes visible, checkpoints the page arena plus catalogue to
// a snapshot sidecar on a background cadence, and on open loads the
// newest valid snapshot and replays the WAL tail. The WAL record is the
// *statement* (PR 4's one-writer-lock-per-statement batching makes a
// bound write plan a natural logical record), so replay runs the exact
// apply functions the live path runs.
//
// Ordering per statement: encode the bound plan (outside any lock) →
// acquire the table writer lock → Append to the WAL → apply the
// mutation → release the lock → Commit (fsync wait under -fsync=always)
// → acknowledge. An append failure fails the statement before any
// mutation; a crash between append and ack replays at most one
// acknowledged-to-nobody statement, keeping recovered state a
// consistent prefix of acknowledged statements.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/types"
	"hique/internal/wal"
)

// FsyncMode is the durability/latency trade-off for acknowledged writes
// (the -fsync server flag): the WAL's sync policy, named in the facade.
type FsyncMode = wal.SyncPolicy

const (
	// FsyncAlways fsyncs before every statement acknowledgement (group
	// commit batches concurrent writers into shared fsyncs).
	FsyncAlways = wal.SyncAlways
	// FsyncInterval acknowledges immediately and fsyncs on a background
	// cadence: a crash loses at most the last interval.
	FsyncInterval = wal.SyncInterval
	// FsyncOff never fsyncs the log explicitly: a crash loses everything
	// since the last checkpoint (or clean close). The log is still
	// written, so a clean process exit loses nothing.
	FsyncOff = wal.SyncOff
)

// durabilityConfig collects the durability options before Open wires
// them up; a nil config (or empty dir) means an in-memory DB.
type durabilityConfig struct {
	dir         string
	mode        FsyncMode
	fsyncIvl    time.Duration
	ckptIvl     time.Duration
	fs          wal.FS
	logf        func(format string, args ...any)
	segmentSize int64
}

// durCfg lazily materialises the config so the durability options
// compose in any order.
func (db *DB) durabilityCfg() *durabilityConfig {
	if db.durCfg == nil {
		db.durCfg = &durabilityConfig{mode: FsyncAlways}
	}
	return db.durCfg
}

// WithDurability makes the database durable in dir: every mutating
// statement is written ahead to a CRC32C-framed WAL, checkpoints
// snapshot the page arena + catalogue, and Open recovers by loading the
// newest valid snapshot and replaying the WAL tail (truncating a torn
// or corrupt tail with a warning rather than refusing to start).
// Combine with WithFsync / WithFsyncInterval / WithCheckpointInterval.
// Open panics if recovery fails outright (unreadable directory); use
// OpenDurable for an error instead.
func WithDurability(dir string) Option {
	return func(db *DB) { db.durabilityCfg().dir = dir }
}

// WithFsync selects when acknowledged statements reach stable storage
// (default FsyncAlways). See FsyncMode.
func WithFsync(m FsyncMode) Option {
	return func(db *DB) { db.durabilityCfg().mode = m }
}

// WithFsyncInterval sets the FsyncInterval cadence (default 50ms).
func WithFsyncInterval(d time.Duration) Option {
	return func(db *DB) { db.durabilityCfg().fsyncIvl = d }
}

// WithCheckpointInterval enables background checkpointing every d
// (<= 0, the default, checkpoints only on Close and explicit
// Checkpoint calls).
func WithCheckpointInterval(d time.Duration) Option {
	return func(db *DB) { db.durabilityCfg().ckptIvl = d }
}

// WithWALFS injects the filesystem the WAL appends through — the crash
// harness's fault-injection hook (see wal.FaultFS). The zero default is
// the real filesystem.
func WithWALFS(fs wal.FS) Option {
	return func(db *DB) { db.durabilityCfg().fs = fs }
}

// WithDurabilityLogf routes recovery and checkpoint warnings (torn
// tails, corrupt snapshots, replay errors) to f instead of stderr.
func WithDurabilityLogf(f func(format string, args ...any)) Option {
	return func(db *DB) { db.durabilityCfg().logf = f }
}

// OpenDurable is Open(WithDurability(dir), options...) returning
// recovery errors instead of panicking — the form servers should use.
func OpenDurable(dir string, options ...Option) (*DB, error) {
	return newDB(append([]Option{WithDurability(dir)}, options...))
}

// DirInitialized reports whether dir already holds a durable database
// (a snapshot or WAL segments). cmd/hique-server uses it to seed TPC-H
// only into a fresh data directory.
func DirInitialized(dir string) bool {
	if m, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.ckpt")); len(m) > 0 {
		return true
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log")); len(m) > 0 {
		return true
	}
	return false
}

// WAL record types. Records are logical: the bound statement, not page
// deltas — replay re-runs the exact apply functions the live write path
// runs, so recovered state is byte-identical across engines.
const (
	recInsert      byte = 1 // table, tuple size, encoded rows
	recDelete      byte = 2 // table, filters
	recUpdate      byte = 3 // table, filters, set assignments
	recCreateTable byte = 4 // table, schema
	recBuildIndex  byte = 5 // table, column
)

// durability is the per-DB durability engine: the WAL, the checkpoint
// state, and the recovery counters.
type durability struct {
	db   *DB
	dir  string
	mode FsyncMode
	log  *wal.Log
	logf func(format string, args ...any)

	// ckptMu serialises checkpoints (background loop, Close, explicit
	// Checkpoint calls).
	ckptMu  sync.Mutex
	ckptIvl time.Duration

	snapLSN      atomic.Uint64 // LSN the newest on-disk snapshot covers
	checkpoints  atomic.Int64
	recoveredLSN uint64 // snapshot LSN recovery started from
	replayed     atomic.Int64
	replayErrors atomic.Int64

	stop     chan struct{}
	loopDone sync.WaitGroup
}

// openDurability recovers the data directory and attaches the WAL:
// load the newest valid snapshot, open the log (repairing a torn
// tail), replay records past the snapshot, and — for a fresh directory
// opened over a seed catalogue — write a bootstrap checkpoint so the
// seed itself is durable.
func (db *DB) openDurability() error {
	cfg := db.durCfg
	logf := cfg.logf
	if logf == nil {
		logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return fmt.Errorf("hique: durability: %w", err)
	}
	initialized := DirInitialized(cfg.dir)
	seeded := len(db.cat.Names()) > 0
	if initialized && seeded {
		return fmt.Errorf("hique: data directory %q is already initialized; open it without a seed catalogue", cfg.dir)
	}
	d := &durability{
		db: db, dir: cfg.dir, mode: cfg.mode, logf: logf,
		ckptIvl: cfg.ckptIvl, stop: make(chan struct{}),
	}
	var snapLSN uint64
	if initialized {
		var err error
		if snapLSN, err = d.loadSnapshot(); err != nil {
			return err
		}
	}
	d.snapLSN.Store(snapLSN)
	d.recoveredLSN = snapLSN
	log, err := wal.Open(filepath.Join(cfg.dir, "wal"), wal.Options{
		Policy:       cfg.mode,
		Interval:     cfg.fsyncIvl,
		SegmentSize:  cfg.segmentSize,
		StartLSN:     snapLSN + 1,
		FS:           cfg.fs,
		FsyncObserve: db.met.walFsync.Observe,
		Logf:         logf,
	})
	if err != nil {
		return fmt.Errorf("hique: durability: %w", err)
	}
	d.log = log
	n, err := log.Replay(snapLSN, d.replayRecord)
	d.replayed.Store(n)
	if err != nil {
		_ = log.Close()
		return fmt.Errorf("hique: durability: %w", err)
	}
	db.dur = d
	if seeded {
		// Fresh directory over a seed catalogue (e.g. -tpch): checkpoint
		// now so the seed survives a crash before the first natural
		// checkpoint.
		if err := d.checkpoint(); err != nil {
			db.dur = nil
			_ = log.Close()
			return fmt.Errorf("hique: durability: bootstrap checkpoint: %w", err)
		}
	}
	if d.ckptIvl > 0 {
		d.loopDone.Add(1)
		go d.checkpointLoop()
	}
	return nil
}

// checkpointLoop is the background checkpoint cadence.
func (d *durability) checkpointLoop() {
	defer d.loopDone.Done()
	t := time.NewTicker(d.ckptIvl)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			if err := d.checkpoint(); err != nil {
				d.logf("hique: background checkpoint: %v", err)
			}
		}
	}
}

// Checkpoint snapshots the database and truncates the WAL at the
// snapshot LSN. No-op (nil) on an in-memory DB.
func (db *DB) Checkpoint() error {
	if db.dur == nil {
		return nil
	}
	return db.dur.checkpoint()
}

// Close stops background durability work, runs a final checkpoint, and
// closes the WAL. Safe to call multiple times; no-op (nil) on an
// in-memory DB. Statements issued after Close fail with a closed-log
// error rather than being silently non-durable.
func (db *DB) Close() error {
	var err error
	db.closeOnce.Do(func() {
		if db.dur == nil {
			return
		}
		close(db.dur.stop)
		db.dur.loopDone.Wait()
		if e := db.dur.checkpoint(); e != nil {
			err = e
		}
		if e := db.dur.log.Close(); e != nil && err == nil {
			err = e
		}
	})
	return err
}

// RecoveryStats reports what the most recent open recovered.
type RecoveryStats struct {
	// SnapshotLSN is the LSN of the snapshot recovery loaded (0 when
	// the directory was fresh).
	SnapshotLSN uint64 `json:"snapshot_lsn"`
	// ReplayedRecords counts WAL records applied past the snapshot.
	ReplayedRecords int64 `json:"replayed_records"`
	// ReplayErrors counts records that decoded but failed to apply
	// (warned and skipped).
	ReplayErrors int64 `json:"replay_errors"`
}

// RecoveryStats reports the most recent open's recovery work; the zero
// value on an in-memory DB.
func (db *DB) RecoveryStats() RecoveryStats {
	if db.dur == nil {
		return RecoveryStats{}
	}
	return RecoveryStats{
		SnapshotLSN:     db.dur.recoveredLSN,
		ReplayedRecords: db.dur.replayed.Load(),
		ReplayErrors:    db.dur.replayErrors.Load(),
	}
}

// DurabilityStats snapshots the durability engine's counters for
// /stats.
type DurabilityStats struct {
	FsyncMode       string `json:"fsync_mode"`
	LastLSN         uint64 `json:"last_lsn"`
	DurableLSN      uint64 `json:"durable_lsn"`
	CheckpointLSN   uint64 `json:"checkpoint_lsn"`
	WALRecords      int64  `json:"wal_records"`
	WALBytes        int64  `json:"wal_bytes"`
	Fsyncs          int64  `json:"fsyncs"`
	Checkpoints     int64  `json:"checkpoints"`
	ReplayedRecords int64  `json:"replayed_records"`
}

// durabilityStats returns nil on an in-memory DB.
func (db *DB) durabilityStats() *DurabilityStats {
	d := db.dur
	if d == nil {
		return nil
	}
	st := d.log.StatsSnapshot()
	return &DurabilityStats{
		FsyncMode:       d.mode.String(),
		LastLSN:         st.LastLSN,
		DurableLSN:      st.DurableLSN,
		CheckpointLSN:   d.snapLSN.Load(),
		WALRecords:      st.Appended,
		WALBytes:        st.Bytes,
		Fsyncs:          st.Fsyncs,
		Checkpoints:     d.checkpoints.Load(),
		ReplayedRecords: d.replayed.Load(),
	}
}

// ---------------------------------------------------------------------
// Write-path hooks
// ---------------------------------------------------------------------

// logAppend writes one record under the mutation's lock; a failure
// fails the statement before the mutation applies.
func (d *durability) logAppend(typ byte, payload []byte) (uint64, error) {
	lsn, err := d.log.Append(typ, payload)
	if err != nil {
		return 0, fmt.Errorf("hique: wal append: %w", err)
	}
	return lsn, nil
}

// logCommit waits (under FsyncAlways) for the record to be durable —
// called after the lock is released, before the statement
// acknowledges, so readers never block on an fsync.
func (d *durability) logCommit(lsn uint64) error {
	if err := d.log.Commit(lsn); err != nil {
		return fmt.Errorf("hique: wal commit: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------
// Payload encodings (all little-endian):
//
//	insert:       str16 table | u32 tupleSize | u32 nRows | rows (raw tuples)
//	delete:       str16 table | filters
//	update:       str16 table | filters | u16 nSets | nSets × (u32 col | datum)
//	create table: str16 table | schema (storage.WriteSchema framing)
//	build index:  str16 table | str16 column
//	filters:      u16 n | n × (u32 col | u8 op | datum)
//	datum:        u8 kind | (String: u32 len | bytes) or (u64 value bits)

func appendU16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	return append(b, w[:]...)
}

func appendStr16(b []byte, s string) []byte {
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}

func appendDatum(b []byte, d types.Datum) []byte {
	b = append(b, byte(d.Kind))
	switch d.Kind {
	case types.String:
		b = appendU32(b, uint32(len(d.S)))
		return append(b, d.S...)
	case types.Float:
		return appendU64(b, math.Float64bits(d.F))
	default:
		return appendU64(b, uint64(d.I))
	}
}

func appendFilters(b []byte, filters []plan.Filter) []byte {
	b = appendU16(b, uint16(len(filters)))
	for i := range filters {
		b = appendU32(b, uint32(filters[i].Col))
		b = append(b, byte(filters[i].Op))
		b = appendDatum(b, filters[i].Val)
	}
	return b
}

// encodeWritePlan renders a *bound* write plan (every parameter slot
// resolved to a concrete datum) into dst, returning the record type.
// Called before the table lock is taken: the bound plan is immutable.
func encodeWritePlan(dst []byte, w *plan.WritePlan) ([]byte, byte) {
	dst = appendStr16(dst, w.Table)
	switch w.Kind {
	case plan.WriteInsert:
		s := w.Schema
		ts := s.TupleSize()
		dst = appendU32(dst, uint32(ts))
		dst = appendU32(dst, uint32(len(w.Rows)))
		for _, row := range w.Rows {
			off := len(dst)
			dst = append(dst, make([]byte, ts)...)
			slot := dst[off : off+ts]
			for ci := range row {
				s.PutDatum(slot, ci, row[ci].Val)
			}
		}
		return dst, recInsert
	case plan.WriteDelete:
		return appendFilters(dst, w.Filters), recDelete
	default: // plan.WriteUpdate
		dst = appendFilters(dst, w.Filters)
		dst = appendU16(dst, uint16(len(w.Sets)))
		for i := range w.Sets {
			dst = appendU32(dst, uint32(w.Sets[i].Col))
			dst = appendDatum(dst, w.Sets[i].Val.Val)
		}
		return dst, recUpdate
	}
}

// encodeInsertRow renders the Go-API Insert as a one-row insert record.
func encodeInsertRow(dst []byte, table string, s *types.Schema, row []types.Datum) []byte {
	dst = appendStr16(dst, table)
	ts := s.TupleSize()
	dst = appendU32(dst, uint32(ts))
	dst = appendU32(dst, 1)
	off := len(dst)
	dst = append(dst, make([]byte, ts)...)
	slot := dst[off : off+ts]
	for ci := range row {
		s.PutDatum(slot, ci, row[ci])
	}
	return dst
}

// encodeCreateTable renders a CREATE TABLE record.
func encodeCreateTable(table string, s *types.Schema) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(appendStr16(nil, table))
	if err := storage.WriteSchema(&buf, s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encodeBuildIndex renders a BuildIndex record.
func encodeBuildIndex(table, column string) []byte {
	return appendStr16(appendStr16(nil, table), column)
}

// recReader decodes record payloads with sticky bounds checking: any
// short read poisons the reader and the caller reports one decode
// error. (CRC passing makes decode errors unreachable in practice;
// this is defence against a record type mismatch.)
type recReader struct {
	buf []byte
	off int
	bad bool
}

func (r *recReader) take(n int) []byte {
	if r.bad || r.off+n > len(r.buf) {
		r.bad = true
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *recReader) u16() int {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return int(binary.LittleEndian.Uint16(b))
}

func (r *recReader) u32() int {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return int(binary.LittleEndian.Uint32(b))
}

func (r *recReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *recReader) str16() string {
	return string(r.take(r.u16()))
}

func (r *recReader) datum() types.Datum {
	kb := r.take(1)
	if kb == nil {
		return types.Datum{}
	}
	switch k := types.Kind(kb[0]); k {
	case types.String:
		return types.StringDatum(string(r.take(r.u32())))
	case types.Float:
		return types.FloatDatum(math.Float64frombits(r.u64()))
	default:
		return types.Datum{Kind: k, I: int64(r.u64())}
	}
}

func (r *recReader) filters() []plan.Filter {
	n := r.u16()
	if r.bad || n > len(r.buf) {
		r.bad = true
		return nil
	}
	fs := make([]plan.Filter, 0, n)
	for i := 0; i < n; i++ {
		col := r.u32()
		ob := r.take(1)
		if ob == nil {
			return nil
		}
		fs = append(fs, plan.Filter{Col: col, Op: sql.CmpOp(ob[0]), Val: r.datum()})
	}
	return fs
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

// replayRecord applies one WAL record during recovery. Apply errors are
// warned and skipped (counted in RecoveryStats) rather than aborting
// the open: a database that starts with a gap beats one that refuses
// to start.
func (d *durability) replayRecord(lsn uint64, typ byte, payload []byte) error {
	if err := d.applyRecord(typ, payload); err != nil {
		d.replayErrors.Add(1)
		d.logf("hique: wal replay: skipping record lsn=%d type=%d: %v", lsn, typ, err)
	}
	return nil
}

// applyRecord decodes and applies one record through the same apply
// functions the live write path uses. Recovery is single-threaded (the
// DB is not shared yet), so no locks are taken.
func (d *durability) applyRecord(typ byte, payload []byte) error {
	db := d.db
	r := &recReader{buf: payload}
	switch typ {
	case recCreateTable:
		name := r.str16()
		if r.bad {
			return fmt.Errorf("truncated create-table record")
		}
		schema, err := storage.ReadSchema(bytes.NewReader(r.buf[r.off:]))
		if err != nil {
			return fmt.Errorf("create table %q: %w", name, err)
		}
		if _, err := db.cat.Lookup(name); err == nil {
			return fmt.Errorf("create table %q: already exists", name)
		}
		db.cat.Register(storage.NewTable(name, schema))
		return nil
	case recBuildIndex:
		name, col := r.str16(), r.str16()
		if r.bad {
			return fmt.Errorf("truncated build-index record")
		}
		_, err := db.cat.BuildIndex(name, col)
		return err
	case recInsert:
		name := r.str16()
		ts, n := r.u32(), r.u32()
		e, err := db.cat.Lookup(name)
		if err != nil {
			return err
		}
		s := e.Table.Schema()
		if ts != s.TupleSize() {
			return fmt.Errorf("insert into %q: tuple size %d, schema wants %d", name, ts, s.TupleSize())
		}
		i := 0
		for ; i < n; i++ {
			tuple := r.take(ts)
			if tuple == nil {
				err = fmt.Errorf("insert into %q: truncated row %d of %d", name, i, n)
				break
			}
			appendRowLocked(e, s.DecodeRow(tuple))
		}
		// A truncated record still ends its statement: the rows before
		// the cut are in the heap.
		if i > 0 {
			db.cat.Wrote(e)
		}
		return err
	case recDelete:
		name := r.str16()
		filters := r.filters()
		e, err := db.cat.Lookup(name)
		if err != nil {
			return err
		}
		if r.bad {
			return fmt.Errorf("truncated delete record for %q", name)
		}
		if applyDelete(e, filters) > 0 {
			db.cat.Wrote(e)
		}
		return nil
	case recUpdate:
		name := r.str16()
		filters := r.filters()
		nSets := r.u16()
		sets := make([]plan.SetColumn, 0, nSets)
		for i := 0; i < nSets && !r.bad; i++ {
			col := r.u32()
			sets = append(sets, plan.SetColumn{Col: col, Val: plan.WriteValue{Val: r.datum()}})
		}
		e, err := db.cat.Lookup(name)
		if err != nil {
			return err
		}
		if r.bad {
			return fmt.Errorf("truncated update record for %q", name)
		}
		if applyUpdate(e, filters, sets) > 0 {
			db.cat.Wrote(e)
		}
		return nil
	}
	return fmt.Errorf("unknown record type %d", typ)
}

// ---------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------

const snapMagic = "HIQS0001"

// snapCRCTable is the CRC32C table snapshot files are checksummed with.
var snapCRCTable = crc32.MakeTable(crc32.Castagnoli)

func snapshotPath(dir string, lsn uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snapshot-%016x.ckpt", lsn))
}

// checkpoint writes a consistent snapshot of every table and truncates
// the WAL at the snapshot LSN.
//
// Consistency: it holds ddlMu plus read locks on every table (in the
// global table-ID order), which quiesces the WAL — DML appends happen
// under table writer locks, DDL appends under ddlMu — so LastLSN at
// that moment covers exactly the applied mutations. The serialization
// into memory happens under the locks (a copy), the file write
// happens after they release, so writers stall only for the copy, not
// the disk. The log is rotated at the snapshot LSN inside the quiesced
// window, making every earlier segment wholly obsolete once the
// snapshot file is safely renamed into place.
func (d *durability) checkpoint() error {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	db := d.db

	db.ddlMu.Lock()
	names := db.cat.Names()
	unlock, _ := db.lockTables(names)
	snapLSN := d.log.LastLSN()
	var buf bytes.Buffer
	buf.WriteString(snapMagic)
	var u64b [8]byte
	binary.LittleEndian.PutUint64(u64b[:], snapLSN)
	buf.Write(u64b[:])
	var u32b [4]byte
	binary.LittleEndian.PutUint32(u32b[:], uint32(len(names)))
	buf.Write(u32b[:])
	var serr error
	for _, name := range names {
		e, err := db.cat.Lookup(name)
		if err != nil {
			continue
		}
		buf.Write(appendStr16(nil, name))
		idx := e.IndexColumns()
		buf.Write(appendU16(nil, uint16(len(idx))))
		for _, c := range idx {
			buf.Write(appendStr16(nil, c))
		}
		if serr = storage.WriteTable(&buf, e.Table); serr != nil {
			break
		}
	}
	var rotErr error
	if serr == nil {
		rotErr = d.log.Rotate()
	}
	unlock()
	db.ddlMu.Unlock()
	if serr != nil {
		return fmt.Errorf("hique: checkpoint serialize: %w", serr)
	}
	if rotErr != nil {
		return fmt.Errorf("hique: checkpoint rotate: %w", rotErr)
	}

	if err := writeSnapshotFile(d.dir, snapLSN, buf.Bytes()); err != nil {
		return fmt.Errorf("hique: checkpoint write: %w", err)
	}
	d.snapLSN.Store(snapLSN)
	d.checkpoints.Add(1)
	d.pruneSnapshots(snapLSN)
	if err := d.log.RemoveSegmentsBefore(snapLSN); err != nil {
		d.logf("hique: checkpoint: pruning wal segments: %v", err)
	}
	return nil
}

// writeSnapshotFile persists body (magic..tables) plus a trailing CRC32C
// via the atomic temp-write/fsync/rename protocol; a crash mid-write
// leaves at worst a .tmp file recovery ignores.
func writeSnapshotFile(dir string, lsn uint64, body []byte) error {
	final := snapshotPath(dir, lsn)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc32.Checksum(body, snapCRCTable))
	if _, err = f.Write(body); err == nil {
		_, err = f.Write(crcb[:])
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	// Make the rename itself durable.
	if df, derr := os.Open(dir); derr == nil {
		_ = df.Sync()
		_ = df.Close()
	}
	return nil
}

// pruneSnapshots removes snapshots older than keep, plus stray temp
// files from interrupted checkpoints.
func (d *durability) pruneSnapshots(keep uint64) {
	for _, ref := range listSnapshots(d.dir) {
		if ref.lsn < keep {
			_ = os.Remove(ref.path)
		}
	}
	if tmps, err := filepath.Glob(filepath.Join(d.dir, "snapshot-*.ckpt.tmp")); err == nil {
		for _, t := range tmps {
			_ = os.Remove(t)
		}
	}
}

type snapRef struct {
	path string
	lsn  uint64
}

// listSnapshots returns snapshot files sorted newest-first.
func listSnapshots(dir string) []snapRef {
	matches, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.ckpt"))
	var refs []snapRef
	for _, p := range matches {
		base := filepath.Base(p)
		hexPart := strings.TrimSuffix(strings.TrimPrefix(base, "snapshot-"), ".ckpt")
		lsn, err := strconv.ParseUint(hexPart, 16, 64)
		if err != nil {
			continue
		}
		refs = append(refs, snapRef{path: p, lsn: lsn})
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].lsn > refs[j].lsn })
	return refs
}

// loadSnapshot loads the newest snapshot whose CRC validates, falling
// back to older ones on corruption (warning each time). Returns the
// loaded snapshot's LSN, or 0 with an empty catalogue when none is
// usable — the WAL replays from the beginning then.
func (d *durability) loadSnapshot() (uint64, error) {
	for _, ref := range listSnapshots(d.dir) {
		lsn, err := d.loadSnapshotFile(ref.path)
		if err != nil {
			d.logf("hique: recovery: snapshot %s unusable (%v); trying an older one", filepath.Base(ref.path), err)
			continue
		}
		if lsn != ref.lsn {
			d.logf("hique: recovery: snapshot %s internally claims lsn %d; using the file's", filepath.Base(ref.path), lsn)
		}
		return ref.lsn, nil
	}
	return 0, nil
}

// loadSnapshotFile parses one snapshot file into the catalogue.
func (d *durability) loadSnapshotFile(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if len(data) < len(snapMagic)+8+4+4 {
		return 0, fmt.Errorf("too short (%d bytes)", len(data))
	}
	body, crcb := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, snapCRCTable) != binary.LittleEndian.Uint32(crcb) {
		return 0, fmt.Errorf("checksum mismatch")
	}
	if string(body[:8]) != snapMagic {
		return 0, fmt.Errorf("bad magic %q", body[:8])
	}
	lsn := binary.LittleEndian.Uint64(body[8:16])
	numTables := int(binary.LittleEndian.Uint32(body[16:20]))
	r := bytes.NewReader(body[20:])
	type loaded struct {
		t   *storage.Table
		idx []string
	}
	tables := make([]loaded, 0, numTables)
	for i := 0; i < numTables; i++ {
		var nb [2]byte
		if _, err := io.ReadFull(r, nb[:]); err != nil {
			return 0, fmt.Errorf("table %d: %w", i, err)
		}
		nameBytes := make([]byte, binary.LittleEndian.Uint16(nb[:]))
		if _, err := io.ReadFull(r, nameBytes); err != nil {
			return 0, fmt.Errorf("table %d name: %w", i, err)
		}
		if _, err := io.ReadFull(r, nb[:]); err != nil {
			return 0, fmt.Errorf("table %d: %w", i, err)
		}
		nIdx := int(binary.LittleEndian.Uint16(nb[:]))
		idx := make([]string, nIdx)
		for j := 0; j < nIdx; j++ {
			if _, err := io.ReadFull(r, nb[:]); err != nil {
				return 0, err
			}
			colBytes := make([]byte, binary.LittleEndian.Uint16(nb[:]))
			if _, err := io.ReadFull(r, colBytes); err != nil {
				return 0, err
			}
			idx[j] = string(colBytes)
		}
		t, err := storage.ReadTable(r, string(nameBytes))
		if err != nil {
			return 0, fmt.Errorf("table %q: %w", nameBytes, err)
		}
		tables = append(tables, loaded{t: t, idx: idx})
	}
	// Parse fully validated before mutating the catalogue: a corrupt
	// snapshot never leaves half its tables registered.
	for _, ld := range tables {
		d.db.cat.Register(ld.t)
		for _, col := range ld.idx {
			if _, err := d.db.cat.BuildIndex(ld.t.Name(), col); err != nil {
				d.logf("hique: recovery: rebuilding index %s.%s: %v", ld.t.Name(), col, err)
			}
		}
	}
	return lsn, nil
}
