// Morsel-driven parallel execution of the fused pipelines (the paper's
// §VII partitioned-evaluation direction): large scans and join probe
// phases split into fixed-size morsels claimed dynamically by a small
// team of workers, with every worker writing into private state and the
// caller stitching the per-morsel outputs back together in morsel-index
// order. The stitching is what preserves the byte-identical-ordering
// contract: result bytes depend only on the morsel split — a pure
// function of the input size — never on claim timing or on how many
// workers actually ran.
//
// Parallelism is decided at generation time, like every other
// specialisation here: a pipeline compiles its worker target from the
// plan's Parallelism and the catalogue's cardinality estimates. Every
// fused loop exists once and takes the state it writes to as an argument
// (rowDst, core.Arena, tailState): a worker target of 1 calls the loop
// over the whole input with the caller's own state — no phase, queue or
// stitch — and a morsel phase calls the same loop per morsel with a
// worker's private state.

package codegen

import (
	"runtime"
	"sync"
	"sync/atomic"

	"hique/internal/core"
	"hique/internal/morsel"
	"hique/internal/plan"
	"hique/internal/storage"
)

// DefaultParallelThreshold is the catalogue-estimate row count below
// which a pipeline compiles serial: scheduling a handful of morsels
// costs more than it saves, and the serving-gate workloads (point
// queries, 4k-row join+agg) must stay on the untouched serial path.
const DefaultParallelThreshold = 32768

var parallelThreshold atomic.Int64

func init() { parallelThreshold.Store(DefaultParallelThreshold) }

// SetParallelThreshold overrides the serial/parallel estimate threshold
// process-wide and returns the previous value. It exists for tests and
// benchmarks that need parallel pipelines on small
// fixtures (or serial ones on large); serving code never touches it.
// Only subsequent Generate calls observe the change.
func SetParallelThreshold(rows int) int {
	return int(parallelThreshold.Swap(int64(rows)))
}

// parallelWorkers resolves a pipeline phase's worker target at
// generation time: the plan's Parallelism (0 = GOMAXPROCS), or 1 when
// the catalogue estimates the phase's input below the threshold.
func parallelWorkers(p *plan.Plan, estRows int) int {
	if int64(estRows) < parallelThreshold.Load() {
		return 1
	}
	w := p.Parallelism
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parMorsel records one morsel's output geometry: which worker ran it,
// the byte range its rows occupy in that worker's arena, the range of
// partition routes staged alongside (staged outputs only), the row
// count, and the pages a scan morsel read and skipped. done flips under
// the phase mutex when the morsel completes.
type parMorsel struct {
	worker       int32
	done         bool
	rows         int
	start, end   int
	pstart, pend int
	pages        core.Pages
}

// rowDst is where a fused loop writes its output rows: the result
// table's next slot on the caller-only run, the worker's private arena
// inside a morsel phase (out nil). rows counts the slots handed out
// since the loop's caller last zeroed it, which is what a LIMIT bounds.
type rowDst struct {
	out   *storage.Table
	arena []byte
	rows  int
}

// slots reserves up to n contiguous w-byte output rows, at least one, and
// returns them with their count: on the result table, as many as its last
// page holds.
func (d *rowDst) slots(n, w int) ([]byte, int) {
	if d.out != nil {
		b, k := d.out.AppendSlots(n)
		d.rows += k
		return b, k
	}
	off := len(d.arena)
	d.arena = core.Extend(d.arena, n*w)
	d.rows += n
	return d.arena[off:], n
}

// parWorker is one worker's private output state, retained across
// phases and executions through the owning scratch so a warm parallel
// query allocates (amortised) nothing. Only the owning worker touches
// it while a phase runs; the caller reads it after the phase barrier.
type parWorker struct {
	// tail is the join phase's tail state, whose row arena also takes the
	// single-table scan's rows and whose stage arena a staging scan's
	// tuples. maps is the map-aggregation accumulator freelist.
	tail tailState
	maps []*core.Accum

	// Pad so adjacent workers' hot arena headers do not share a cache
	// line while both append.
	_ [64]byte
}

// popMap draws a pooled map-aggregation state from the worker's private
// freelist. The caller returns states through the phase's morsel records
// after the barrier.
func (wk *parWorker) popMap() *core.Accum {
	if n := len(wk.maps); n > 0 {
		m := wk.maps[n-1]
		wk.maps = wk.maps[:n-1]
		return m
	}
	return new(core.Accum)
}

// parPhase coordinates one parallel phase: the morsel claim queue, the
// per-morsel output records, the per-worker private state, and the
// completed-prefix watermark that turns a satisfied LIMIT into
// cancellation of unclaimed morsels.
type parPhase struct {
	queue   morsel.Queue
	morsels []parMorsel
	workers []parWorker

	// mu guards the watermark advance. watermark is the first morsel
	// index not yet completed; prefixRows counts the rows of the
	// completed contiguous prefix — once that alone satisfies limit,
	// every unclaimed morsel is cancelled (the stitched result cannot
	// need them). limit < 0 disables cancellation.
	mu         sync.Mutex
	watermark  int
	prefixRows int
	limit      int

	// started is the worker count that actually ran (helpers admitted by
	// the pool, plus the caller).
	started int

	// panicked is the first panic a worker's body raised (under mu), which
	// run re-raises on the caller once every worker has returned.
	panicked any
}

// reset prepares the phase for nMorsels morsels and a target worker
// count, retaining worker arenas across phases and executions.
func (ph *parPhase) reset(nMorsels, workers, limit int) {
	ph.queue.Reset(nMorsels)
	ph.watermark, ph.prefixRows, ph.limit = 0, 0, limit
	if cap(ph.morsels) < nMorsels {
		ph.morsels = make([]parMorsel, nMorsels)
	}
	ph.morsels = ph.morsels[:nMorsels]
	for i := range ph.morsels {
		ph.morsels[i] = parMorsel{}
	}
	if cap(ph.workers) < workers {
		grown := make([]parWorker, workers)
		copy(grown, ph.workers)
		ph.workers = grown
	}
	ph.workers = ph.workers[:workers]
	for i := range ph.workers {
		ts := &ph.workers[i].tail
		ts.staged.Reset(0, 0)
		ts.arena = ts.arena[:0]
	}
	ph.started = 0
}

// run executes body as worker 0 on the calling goroutine and up to
// target-1 helpers admitted through the pool (nil = unbounded), then
// waits for all of them. Correctness never depends on how many helpers
// were admitted: the claim queue lets any subset of workers drain every
// morsel, and stitching is by morsel index, not worker.
//
// A panic in any worker's body is re-raised here, on the calling
// goroutine, after every worker has returned: the caller's containment
// (lease's containPanic) then turns it into a statement error, and the
// table locks it holds are released only once no helper is still
// reading pages.
func (ph *parPhase) run(pool *morsel.Pool, target int, body func(w int)) {
	var wg sync.WaitGroup
	started := 1
	for w := 1; w < target; w++ {
		w := w
		wg.Add(1)
		if !pool.TryGo(func() { defer wg.Done(); ph.work(w, body) }) {
			wg.Done()
			break
		}
		started++
	}
	ph.work(0, body)
	wg.Wait()
	ph.started = started
	if r := ph.panicked; r != nil {
		ph.panicked = nil
		panic(r)
	}
}

// work runs body as worker w. A panic stops the phase instead of the
// process: it cancels the queue, so the other workers finish their
// current morsel and return, and is kept (the first one) for run.
func (ph *parPhase) work(w int, body func(w int)) {
	defer func() {
		if r := recover(); r != nil {
			ph.queue.Cancel()
			ph.mu.Lock()
			if ph.panicked == nil {
				ph.panicked = r
			}
			ph.mu.Unlock()
		}
	}()
	body(w)
}

// complete publishes morsel m's output record and advances the
// completed-prefix watermark, cancelling unclaimed morsels once the
// prefix alone satisfies the limit.
func (ph *parPhase) complete(m int, mo parMorsel) {
	mo.done = true
	ph.mu.Lock()
	ph.morsels[m] = mo
	for ph.watermark < len(ph.morsels) && ph.morsels[ph.watermark].done {
		ph.prefixRows += ph.morsels[ph.watermark].rows
		ph.watermark++
	}
	if ph.limit >= 0 && ph.prefixRows >= ph.limit {
		ph.queue.Cancel()
	}
	ph.mu.Unlock()
}

// finish records the phase into the process-wide morsel counters and,
// when traced, into the plan trace (worker count + per-morsel rows). It
// returns the number of morsels actually processed — under LIMIT
// cancellation the unclaimed tail is skipped, which is the point.
func (ph *parPhase) finish(tr *plan.Trace, stage string) int {
	done := 0
	for i := range ph.morsels {
		if ph.morsels[i].done {
			done++
		}
	}
	morsel.CountMorsels(done)
	if tr != nil {
		rows := make([]int64, 0, done)
		for i := range ph.morsels {
			if ph.morsels[i].done {
				rows = append(rows, int64(ph.morsels[i].rows))
			}
		}
		tr.ObserveParallel(stage, ph.started, rows)
	}
	return done
}

// pages sums the page tallies of the completed morsels: what a scan
// phase read and skipped.
func (ph *parPhase) pages() core.Pages {
	var read core.Pages
	for i := range ph.morsels {
		if ph.morsels[i].done {
			read.Add(ph.morsels[i].pages)
		}
	}
	return read
}

// stitchRows appends the per-morsel output ranges to out in morsel
// order, honouring the row limit: the deterministic reassembly that
// makes parallel output byte-identical to the serial loop's. Morsels
// cancelled by the limit watermark are beyond the completed prefix that
// satisfied the limit, so skipping them cannot change the emitted
// prefix.
func (ph *parPhase) stitchRows(out *storage.Table, w, limit int) {
	emitted := 0
	for i := range ph.morsels {
		mo := &ph.morsels[i]
		if !mo.done || mo.rows == 0 {
			continue
		}
		src := ph.workers[mo.worker].tail.arena[mo.start:mo.end]
		for off := 0; off < len(src); off += w {
			if limit >= 0 && emitted >= limit {
				return
			}
			copy(out.AppendSlot(), src[off:off+w])
			emitted++
		}
	}
}

// parPhasePool recycles phases for pipelines without a scratch of their
// own (the single-table scan); the fused join embeds a phase in its
// pooled joinScratch instead.
var parPhasePool = sync.Pool{New: func() any { return new(parPhase) }}

// pageMorsels computes the page-range split of a table scan: each morsel
// covers enough whole pages to hold about rows tuples (morsel.Rows, or
// more where a morsel carries a fixed merge cost). n is the morsel count;
// a caller seeing n < 2 runs its serial loop. The split is a pure
// function of the page count, never of the worker count.
func pageMorsels(t *storage.Table, rows int) (perMorsel, n int) {
	pages := t.NumPages()
	if pages == 0 {
		return 1, 0
	}
	cap := t.Page(0).Capacity()
	if cap < 1 {
		cap = 1
	}
	perMorsel = (rows + cap - 1) / cap
	if perMorsel < 1 {
		perMorsel = 1
	}
	return perMorsel, (pages + perMorsel - 1) / perMorsel
}
