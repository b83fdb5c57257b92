package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"
)

// config is one invocation's settings; everything a workload varies
// comes from seed.
type config struct {
	seed    int64
	window  time.Duration // the measured window
	warmup  time.Duration
	setups  int // set-up repetitions on the end-to-end run; the median is reported
	quick   bool
	traceTo string // directory trace files are written to
}

// probeRequests is how many sampled statements the traced run replays.
func (c config) probeRequests() int {
	if c.quick {
		return 20
	}
	return 200
}

// probeWriteRequests is the mixed workload's sample: each of its reads
// follows a write and pays a statistics refresh of lineitem, some 20 ms,
// three times over (loopback, handler, DB).
func (c config) probeWriteRequests() int {
	if c.quick {
		return 10
	}
	return 60
}

// sample is one completed operation of the closed loop.
type sample struct {
	end, lat int64 // completion time since the window opened, latency: ns
	class    uint8
	ok       bool
}

// mark is a reading of the clock and of the CPU time of the process under
// test, taken by the first client between two of its operations. Marks
// cut the window into chunks.
type mark struct {
	t   int64 // ns since the window opened
	cpu time.Duration
}

// window is what one measured interval observed.
type window struct {
	samples []sample
	marks   []mark // the first at the window's start, the last at its end
	elapsed time.Duration
	cpu     time.Duration // of the process under test
	peakKB  int64
}

// chunkLen is the length of the chunks a window is cut into.
const chunkLen = 500 * time.Millisecond

// runWindow runs every client of the instance in a closed loop for d:
// each sends its next operation only after the previous reply arrived
// and was checked. An operation in flight when the window closes
// completes and counts; elapsed is measured to the last completion.
// With a tracer, every client also records each operation as a root span
// in a tracer of its own (sharing tr's clock), and the spans are appended
// to tr when the window closes.
func runWindow(inst *instance, d time.Duration, tr *tracer) (window, error) {
	var w window
	cpu0, err := inst.target.cpu()
	if err != nil {
		return w, err
	}
	inst.target.beginPeak()
	perClient := make([][]sample, len(inst.clients))
	var spans []*tracer
	if tr != nil {
		for range inst.clients {
			spans = append(spans, &tracer{t0: tr.t0})
		}
	}
	var wg sync.WaitGroup
	var markErr error
	w.marks = append(w.marks, mark{cpu: cpu0})
	start := time.Now()
	deadline := start.Add(d)
	for i, op := range inst.clients {
		wg.Add(1)
		go func(i int, op opFunc) {
			defer wg.Done()
			buf := make([]sample, 0, 1<<16)
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					break
				}
				id := -1
				if tr != nil {
					id = spans[i].begin("client.op", -1, 0)
				}
				class, ok := op()
				if tr != nil {
					spans[i].end(id)
					spans[i].spans[id].Name = "client.op." + inst.classes[class]
				}
				end := time.Since(start)
				buf = append(buf, sample{end: int64(end), lat: int64(end - t0.Sub(start)), class: uint8(class), ok: ok})
				// The first client closes a chunk at the first of its
				// operation boundaries past the chunk length, so a chunk of
				// a one-client workload holds whole operations only.
				if i == 0 && int64(end)-w.marks[len(w.marks)-1].t >= int64(chunkLen) && markErr == nil {
					cpu, err := inst.target.cpu()
					markErr = err
					w.marks = append(w.marks, mark{t: int64(end), cpu: cpu})
				}
			}
			perClient[i] = buf
		}(i, op)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	if markErr != nil {
		return w, markErr
	}
	for _, c := range spans {
		for _, sp := range c.spans {
			tr.add(sp.Name, -1, -1-len(tr.spans), sp.Start, sp.End)
		}
	}
	cpu1, err := inst.target.cpu()
	if err != nil {
		return w, err
	}
	w.cpu = cpu1 - cpu0
	// A short remainder joins the chunk before it: a few operations over a
	// few milliseconds (and no CPU tick) would make the fastest chunk by
	// chance.
	if n := len(w.marks); n > 1 && int64(w.elapsed)-w.marks[n-1].t < int64(chunkLen)/2 {
		w.marks = w.marks[:n-1]
	}
	w.marks = append(w.marks, mark{t: int64(w.elapsed), cpu: cpu1})
	w.peakKB = inst.target.peakKB()
	for _, s := range perClient {
		w.samples = append(w.samples, s...)
	}
	if len(w.samples) == 0 {
		return w, fmt.Errorf("benchmark: no operation completed in a %s window", d)
	}
	return w, nil
}

// add folds another window's samples and totals into w (not its marks:
// only a whole window is cut into chunks).
func (w *window) add(o window) {
	w.samples = append(w.samples, o.samples...)
	w.elapsed += o.elapsed
	w.cpu += o.cpu
	if o.peakKB > w.peakKB {
		w.peakKB = o.peakKB
	}
}

// tally splits a window's samples into correct latencies (all, and per
// class) and counts the failures.
func (w *window) tally(nClasses int) (all []int64, byClass [][]int64, failed int) {
	byClass = make([][]int64, nClasses)
	for _, s := range w.samples {
		if !s.ok {
			failed++
			continue
		}
		all = append(all, s.lat)
		byClass[s.class] = append(byClass[s.class], s.lat)
	}
	slices.Sort(all)
	return all, byClass, failed
}

// undisturbed returns the part of the window the machine disturbed
// least. The benchmark runs on a shared virtual machine on which the same
// code runs up to twice as slowly for five to twenty seconds at a time
// (README.md, "The undisturbed quarter"); the interference only ever
// slows a run down. So the window is cut into chunks (at operation
// boundaries, about 0.5 s each), each chunk's throughput is taken, and
// the quarter of the chunks with the highest throughput is kept: its
// samples, its elapsed time and its CPU time. Throughput, latency
// percentiles and CPU per operation are computed over that quarter;
// failures are counted over the whole window.
func (w *window) undisturbed() window {
	type chunk struct {
		lo, hi int // samples[lo:hi], sorted by completion time
		dt     int64
		cpu    time.Duration
	}
	samples := append([]sample(nil), w.samples...)
	sort.Slice(samples, func(i, j int) bool { return samples[i].end < samples[j].end })
	var chunks []chunk
	lo := 0
	for m := 1; m < len(w.marks); m++ {
		hi := lo
		last := m == len(w.marks)-1
		for hi < len(samples) && (last || samples[hi].end <= w.marks[m].t) {
			hi++
		}
		if dt := w.marks[m].t - w.marks[m-1].t; hi > lo && dt > 0 {
			chunks = append(chunks, chunk{lo: lo, hi: hi, dt: dt, cpu: w.marks[m].cpu - w.marks[m-1].cpu})
		}
		lo = hi
	}
	if len(chunks) < 2 {
		return *w
	}
	rate := func(c chunk) float64 { return float64(c.hi-c.lo) / float64(c.dt) }
	sort.SliceStable(chunks, func(i, j int) bool { return rate(chunks[i]) > rate(chunks[j]) })
	out := window{peakKB: w.peakKB}
	for _, c := range chunks[:(len(chunks)+3)/4] {
		out.samples = append(out.samples, samples[c.lo:c.hi]...)
		out.elapsed += time.Duration(c.dt)
		out.cpu += c.cpu
	}
	return out
}

// result is one run of one workload: its end-to-end metrics (traced ==
// false) or its per-layer metrics (traced == true).
type result struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	metrics   values
	// problems are failed checks: wrong replies, a page leak, a final
	// count that does not match the books, a metric that is missing. Any
	// of them makes the run incorrect and the exit code non-zero.
	problems []string
	notes    []string
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

const (
	arenaInUse    = "hique_arena_pages_in_use"
	arenaRecycled = "hique_arena_pages_recycled_total"
)

// checkLeak fails the run when the arena holds another number of pages
// after the window than before it.
func checkLeak(res *result, before, after promSamples) {
	if in0, in1 := before[arenaInUse], after[arenaInUse]; in1 != in0 {
		res.problem("storage: %v arena pages in use after the window, %v before it: a result table leaked", in1, in0)
	}
}

// settle returns set-up garbage to the OS before anything is measured,
// so the in-process workloads' memory is the engine's, not the
// reference's.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runEndToEnd measures one workload with tracing off: set-up (repeated,
// median reported), warm-up, the window, the end-of-run assertions.
func runEndToEnd(e *env, w *workload, cfg config) (*result, error) {
	res := &result{workload: w.name, metrics: values{}}
	var inst *instance
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(e, cfg); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer func() { inst.close() }()
	settle()
	if _, err := runWindow(inst, cfg.warmup, nil); err != nil {
		return nil, err
	}
	before, err := inst.counters()
	if err != nil {
		return nil, err
	}
	win, err := runWindow(inst, cfg.window, nil)
	if err != nil {
		return nil, err
	}
	after, err := inst.counters()
	if err != nil {
		return nil, err
	}

	_, _, failed := win.tally(len(inst.classes))
	res.attempted, res.failed = len(win.samples), failed
	best := win.undisturbed()
	lat, _, _ := best.tally(len(inst.classes))
	m := res.metrics
	n := len(lat)
	m.set("throughput_ops_s", float64(n)/best.elapsed.Seconds(), n)
	m.set("latency_p50_ms", median(lat)/1e6, n)
	p := tailPercentile(n)
	m.setNote("latency_tail_ms", float64(percentile(lat, p))/1e6, n, percentileLabel(p))
	m.set("cpu_ms_per_op", float64(best.cpu)/1e6/float64(len(best.samples)), len(best.samples))
	m.set("peak_rss_mb", float64(win.peakKB)/1024, 1)
	res.notes = append(res.notes, fmt.Sprintf("window: %d operations in %s; the time-based metrics are over its undisturbed quarter, %d operations in %s",
		len(win.samples), win.elapsed.Round(time.Millisecond), len(best.samples), best.elapsed.Round(time.Millisecond)))
	whole, _, _ := win.tally(len(inst.classes))
	res.notes = append(res.notes, fmt.Sprintf("whole window: throughput_ops_s %.6g, latency_p50_ms %.6g, latency_tail_ms %.6g, cpu_ms_per_op %.6g",
		float64(len(whole))/win.elapsed.Seconds(), median(whole)/1e6, float64(percentile(whole, tailPercentile(len(whole))))/1e6,
		float64(win.cpu)/1e6/float64(len(win.samples))))
	m.set("setup_s", medianFloat(setupS), len(setupS))

	checkLeak(res, before, after)
	if inst.verify != nil {
		if err := inst.verify(false, nil); err != nil {
			res.problem("%v", err)
		}
	}
	checkComplete(res, endToEnd, w.name)
	return res, nil
}

// traceSlices is how many slices the traced run cuts its window into.
const traceSlices = 6

// runTraced produces one workload's per-layer metrics: a window of
// alternating untraced and traced slices (the difference is the tracing
// overhead), the layer counters scraped around it, then the probes.
func runTraced(e *env, w *workload, cfg config) (*result, error) {
	res := &result{workload: w.name, traced: true, metrics: values{}}
	inst, err := w.setup(e, cfg)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	settle()
	if _, err := runWindow(inst, cfg.warmup, nil); err != nil {
		return nil, err
	}
	var rows0, bytes0, stmts0, user0 int64
	if inst.respRows != nil {
		rows0, bytes0 = inst.respRows()
	}
	if inst.writes != nil {
		stmts0, user0 = inst.writes()
	}
	before, err := inst.counters()
	if err != nil {
		return nil, err
	}
	// Untraced and traced slices alternate, so that drift over the
	// window (heap growth, the writer's table) falls on both alike. A
	// traced slice records every operation as a root span.
	tr := newTracer()
	var plain, traced window
	for i := 0; i < traceSlices; i++ {
		into, with := &plain, (*tracer)(nil)
		if i%2 == 1 {
			into, with = &traced, tr
		}
		win, err := runWindow(inst, cfg.window/traceSlices, with)
		if err != nil {
			return nil, err
		}
		into.add(win)
	}
	windowSpans := len(tr.spans)
	if windowSpans > windowSpansKept {
		tr.spans = tr.spans[:windowSpansKept]
	}
	kept := len(tr.spans)
	after, err := inst.counters()
	if err != nil {
		return nil, err
	}

	m := res.metrics
	_, byClassA, failedA := plain.tally(len(inst.classes))
	_, byClassB, failedB := traced.tally(len(inst.classes))
	res.attempted = len(plain.samples) + len(traced.samples)
	res.failed = failedA + failedB
	ops := float64(res.attempted)
	thrA := float64(len(plain.samples)-failedA) / plain.elapsed.Seconds()
	thrB := float64(len(traced.samples)-failedB) / traced.elapsed.Seconds()
	m.set("trace.overhead_share", 1-thrB/thrA, res.attempted)
	for c, name := range inst.classes {
		lat := append(byClassA[c], byClassB[c]...)
		if metric := "client." + name + "_p50_us"; unitOf(metric) != "" {
			m.set(metric, medianOf(lat)/1e3, len(lat))
		}
	}

	delta := func(family string, labels ...string) float64 {
		return after.sum(family, labels...) - before.sum(family, labels...)
	}
	const read = `cache="read"`
	hits, misses := delta("hique_plan_cache_hits_total", read), delta("hique_plan_cache_misses_total", read)
	m.set("plancache.hit_share", ratio(hits, hits+misses), int(hits+misses))
	m.set("plancache.evictions", delta("hique_plan_cache_evictions_total", read), int(ops))
	m.set("plancache.invalidations", delta("hique_plan_cache_invalidations_total", read), int(ops))
	m.set("morsel.parallel_queries", delta("hique_parallel_queries_total"), int(ops))
	m.set("morsel.morsels", delta("hique_morsels_total"), int(ops))
	m.set("storage.pages_recycled", delta(arenaRecycled), int(ops))
	m.set("storage.pages_in_use_end", after[arenaInUse], 1)
	checkLeak(res, before, after)
	const latency = "hique_query_duration_seconds_count"
	m.set("codegen.fused_share", ratio(delta(latency, `path="fused"`), delta(latency)), int(delta(latency)))
	m.set("hique.lock_wait_us_per_op", delta("hique_lock_wait_seconds_sum")*1e6/ops, int(delta("hique_lock_wait_seconds_count")))
	var stmts, user float64
	if inst.writes != nil {
		s1, u1 := inst.writes()
		stmts, user = float64(s1-stmts0), float64(u1-user0)
	}
	m.set("wal.fsyncs_per_stmt", ratio(delta("hique_wal_fsyncs_total"), stmts), int(stmts))
	m.set("wal.bytes_per_user_byte", ratio(delta("hique_wal_bytes_total"), user), int(stmts))
	if inst.respRows != nil {
		rows1, bytes1 := inst.respRows()
		m.set("server.resp_bytes_per_row", ratio(float64(bytes1-bytes0), float64(rows1-rows0)), int(rows1-rows0))
		m.set("server.rejected", delta("hique_pool_rejected_total"), int(ops))
	}

	if err := inst.probe(tr, m); err != nil {
		res.problem("probe: %v", err)
	}
	if inst.verify != nil {
		if err := inst.verify(true, m); err != nil {
			res.problem("%v", err)
		}
	}

	computeSelf(tr.spans)
	shares := rootSelfShares(tr.spans[kept:])
	over := 0
	for _, s := range shares {
		if s > 0.10 {
			over++
		}
	}
	res.notes = append(res.notes, fmt.Sprintf("trace: %d requests; in %d the layer spans cover less than 90%% of the root span (median uncovered share %.3f)",
		len(shares), over, medianFloat(shares)))
	if len(shares) > 0 && float64(over) > 0.05*float64(len(shares)) {
		res.problem("trace: in %d of %d requests the layer spans cover less than 90%% of the root span", over, len(shares))
	}
	path, err := writeTrace(cfg.traceTo, w.name, cfg.seed, windowSpans, tr.spans)
	if err != nil {
		return nil, err
	}
	res.notes = append(res.notes, "trace: spans written to "+path)
	checkComplete(res, perLayer, w.name)
	return res, nil
}

// ratio is a/b, and 0 when there was nothing to divide by (a workload
// without writes has no fsyncs per statement).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkComplete enforces that every named metric is in the output: one
// that applies to the workload and was not measured is a problem, one
// that does not apply reports 0 with no samples.
func checkComplete(res *result, defs []metricDef, workload string) {
	for _, d := range defs {
		if _, ok := res.metrics[d.Name]; ok {
			continue
		}
		if d.appliesTo(workload) {
			res.problem("metric %s is missing from the output", d.Name)
		}
		res.metrics.setNote(d.Name, 0, 0, "n/a")
	}
}
