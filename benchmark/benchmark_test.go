package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hique/internal/sql"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{n: 5, want: 0.5},
		{n: 19, want: 0.5},
		{n: 20, want: 0.5},
		{n: 100, want: 0.90},
		{n: 999, want: 1 - 10.0/999},
		{n: 1000, want: 0.99},
		{n: 150000, want: 0.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// Whatever the sample size, the value read has at least ten samples
	// beyond it, and no higher percentile up to p99 would.
	for _, n := range []int{20, 37, 75, 100, 101, 640, 1000, 1001, 54321} {
		sorted := make([]int64, n)
		for i := range sorted {
			sorted[i] = int64(i)
		}
		p := tailPercentile(n)
		beyond := n - 1 - int(percentile(sorted, p))
		if beyond < 10 {
			t.Errorf("n=%d: p=%v leaves %d samples beyond it, want >= 10", n, p, beyond)
		}
		if p < 0.99 && beyond > 10 {
			t.Errorf("n=%d: p=%v leaves %d samples beyond it; a higher percentile would still leave 10", n, p, beyond)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]int64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if got := median([]int64{1, 2, 10}); got != 2 {
		t.Errorf("median of an odd sample = %v, want 2", got)
	}
	if got := percentile([]int64{10, 20, 30, 40}, 0.5); got != 20 {
		t.Errorf("nearest-rank p50 = %v, want 20", got)
	}
	if got := percentileLabel(0.99); got != "p99" {
		t.Errorf("label = %q", got)
	}
	if got := percentileLabel(1 - 10.0/75); got != "p86.7" {
		t.Errorf("label = %q", got)
	}
}

// TestUndisturbedQuarter builds a window of twelve 1 s chunks of which
// eight ran at a third of the speed: the kept quarter must be undisturbed
// chunks only, with their own elapsed time and CPU time.
func TestUndisturbedQuarter(t *testing.T) {
	const sec = int64(time.Second)
	var w window
	w.marks = append(w.marks, mark{})
	cpu := time.Duration(0)
	for c := 0; c < 12; c++ {
		ops, lat := 33, sec/33
		if c%3 == 1 { // chunks 1, 4, 7, 10 are undisturbed
			ops, lat = 100, sec/100
		}
		for i := 0; i < ops; i++ {
			w.samples = append(w.samples, sample{end: int64(c)*sec + int64(i+1)*lat, lat: lat, ok: true})
		}
		cpu += time.Duration(ops) * 2 * time.Millisecond
		w.marks = append(w.marks, mark{t: int64(c+1) * sec, cpu: cpu})
	}
	w.elapsed, w.cpu = 12*time.Second, cpu
	// Samples arrive client by client, not in time order.
	w.samples[0], w.samples[len(w.samples)-1] = w.samples[len(w.samples)-1], w.samples[0]

	best := w.undisturbed()
	if got := len(best.samples); got != 3*100 {
		t.Fatalf("kept %d samples, want three fast chunks (300)", got)
	}
	if best.elapsed != 3*time.Second {
		t.Errorf("kept %s of the window, want 3s", best.elapsed)
	}
	if want := time.Duration(300) * 2 * time.Millisecond; best.cpu != want {
		t.Errorf("kept cpu %s, want %s", best.cpu, want)
	}
	lat, _, failed := best.tally(1)
	if failed != 0 || median(lat) != float64(sec/100) {
		t.Errorf("median latency of the kept quarter = %v, want the undisturbed %v", median(lat), sec/100)
	}
	// A window without chunks is returned whole.
	whole := window{samples: w.samples, marks: []mark{{}, {t: 12 * sec}}, elapsed: 12 * time.Second}
	if got := whole.undisturbed(); len(got.samples) != len(w.samples) {
		t.Errorf("a one-chunk window lost samples: %d of %d", len(got.samples), len(w.samples))
	}
}

// TestWindowChunks runs a closed loop of 1 ms operations for 1.1 s: the
// window is cut at operation boundaries every 0.5 s, and the 0.1 s left
// over joins the chunk before it instead of becoming a chunk of its own.
func TestWindowChunks(t *testing.T) {
	inst := &instance{
		classes: []string{"sleep"},
		clients: []opFunc{func() (int, bool) { time.Sleep(time.Millisecond); return 0, true }},
		target:  &target{},
	}
	w, err := runWindow(inst, 1100*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.marks) != 3 || w.marks[0].t != 0 || w.marks[2].t != int64(w.elapsed) {
		t.Fatalf("marks = %+v over %s, want the start, one cut and the end", w.marks, w.elapsed)
	}
	for i := 1; i < len(w.marks); i++ {
		if d := w.marks[i].t - w.marks[i-1].t; d < int64(chunkLen) {
			t.Errorf("chunk %d is %s long, shorter than the chunk length", i, time.Duration(d))
		}
	}
	if best := w.undisturbed(); len(best.samples) == 0 || len(best.samples) >= len(w.samples) {
		t.Errorf("undisturbed quarter holds %d of %d samples", len(best.samples), len(w.samples))
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 4, Parent: 2, Name: "b1", Start: 25, End: 45}, // grandchild: b's, not root's
		{ID: 5, Parent: -1, Name: "leaf", Start: 200, End: 260},
	}
	computeSelf(spans)
	want := map[string]int64{"root": 50, "a": 20, "b": 10, "c": 30, "b1": 20, "leaf": 60}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("self(%s) = %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
	shares := rootSelfShares(spans)
	if len(shares) != 2 || shares[0] != 0.5 || shares[1] != 1 {
		t.Errorf("root self shares = %v, want [0.5 1]", shares)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request", -1, 7)
	tr.call("child", root, 7, func() { time.Sleep(time.Millisecond) })
	tr.end(root)
	computeSelf(tr.spans)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Request != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	r, c := tr.spans[0], tr.spans[1]
	if c.Start < r.Start || c.End > r.End || r.Self != (r.End-r.Start)-(c.End-c.Start) {
		t.Errorf("child not nested in root, or self time wrong: root %+v child %+v", r, c)
	}
}

func shapeSet(t *testing.T, seed int64, n int) (map[string]bool, []genStmt) {
	t.Helper()
	stmts, err := genShapes(seed, n)
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for _, st := range stmts {
		shape, _, err := sql.NormalizeShape(st.text)
		if err != nil {
			t.Fatalf("%s: %v", st.text, err)
		}
		set[shape] = true
	}
	return set, stmts
}

func TestShapeGenerator(t *testing.T) {
	a, stmtsA := shapeSet(t, 1, coldShapes)
	if len(a) < coldShapes {
		t.Fatalf("seed 1 yields %d distinct shapes, want >= %d", len(a), coldShapes)
	}
	if coldShapes < 4*planCacheSize {
		t.Fatalf("working set %d is not 4x the %d-entry plan cache", coldShapes, planCacheSize)
	}
	_, again := shapeSet(t, 1, coldShapes)
	if !reflect.DeepEqual(stmtsA, again) {
		t.Error("the same seed gave different statements")
	}
	b, _ := shapeSet(t, 2, coldShapes)
	shared := 0
	for s := range a {
		if b[s] {
			shared++
		}
	}
	if shared == len(a) {
		t.Error("seeds 1 and 2 gave the same set of shapes")
	}
	// Every statement parses, and a LIMIT only ever rides on a total order.
	for _, st := range stmtsA {
		if _, err := sql.ParseStmt(st.text); err != nil {
			t.Errorf("%s: %v", st.text, err)
		}
		if strings.Contains(st.text, " LIMIT ") && !strings.Contains(st.text, " ORDER BY ") {
			t.Errorf("LIMIT without ORDER BY picks arbitrary rows: %s", st.text)
		}
	}
}

func TestRowsEqual(t *testing.T) {
	want := [][]any{{int64(1), 2.5, "a"}, {int64(2), 1e9, "b"}}
	same := [][]any{{int64(1), 2.5, "a"}, {int64(2), 1e9 + 0.5, "b"}} // within 1e-9 relative
	if !rowsEqual(want, same, true) {
		t.Error("rows within float tolerance compare unequal")
	}
	wire := [][]any{{json.Number("1"), json.Number("2.5"), "a"}, {json.Number("2"), json.Number("1e+09"), "b"}}
	if !rowsEqual(want, wire, true) {
		t.Error("wire rows (json.Number) compare unequal")
	}
	swapped := [][]any{wire[1], wire[0]}
	if rowsEqual(want, swapped, true) {
		t.Error("ordered comparison accepted swapped rows")
	}
	if !rowsEqual(want, swapped, false) {
		t.Error("multiset comparison rejected swapped rows")
	}
	for name, bad := range map[string][][]any{
		"wrong int":    {{int64(9), 2.5, "a"}, want[1]},
		"wrong float":  {{int64(1), 2.6, "a"}, want[1]},
		"wrong string": {{int64(1), 2.5, "z"}, want[1]},
		"float as int": {{1.0, 2.5, "a"}, want[1]},
		"short":        {want[0]},
	} {
		if rowsEqual(want, bad, true) || rowsEqual(want, bad, false) {
			t.Errorf("%s: compared equal", name)
		}
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP x y
# TYPE hique_query_duration_seconds histogram
hique_query_duration_seconds_count{class="point",path="fused",temp="warm"} 7
hique_query_duration_seconds_count{class="point",path="general",temp="warm"} 3
hique_lock_wait_seconds_sum 0.25
hique_arena_pages_in_use 0
`
	p, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	const fam = "hique_query_duration_seconds_count"
	if got := p.sum(fam); got != 10 {
		t.Errorf("sum(all) = %v, want 10", got)
	}
	if got := p.sum(fam, `path="fused"`); got != 7 {
		t.Errorf("sum(fused) = %v, want 7", got)
	}
	if got := p.sum("hique_lock_wait_seconds_sum"); got != 0.25 {
		t.Errorf("lock wait sum = %v", got)
	}
	if got := p.sum("hique_query_duration_seconds"); got != 0 {
		t.Errorf("a family name must match whole, got %v", got)
	}
}

// benchmarkJSON mirrors the schema of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the program: the
// same workloads, metric names, units, directions and bounds, and the
// same window length.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(b.Paths, []string{"benchmark"}) {
		t.Errorf("command %v / paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default window is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	strip := func(defs []metricDef) []metricDef {
		out := append([]metricDef(nil), defs...)
		for i := range out {
			out[i].On = ""
		}
		return out
	}
	if !reflect.DeepEqual(b.EndToEnd, strip(endToEnd)) {
		t.Errorf("end_to_end differs:\n json    %+v\n program %+v", b.EndToEnd, strip(endToEnd))
	}
	if !reflect.DeepEqual(b.PerLayer, strip(perLayer)) {
		t.Errorf("per_layer differs:\n json    %+v\n program %+v", b.PerLayer, strip(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(strip(endToEnd), strip(perLayer)...) {
		if seen[d.Name] {
			t.Errorf("metric name %s is used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not an end-to-end metric")
	}
}

// TestFailedHealthCheckLeavesNothing starts a "server" that exits at
// once: startServer must report the failure and leave neither a tracked
// process nor, after close, the run directory.
func TestFailedHealthCheckLeavesNothing(t *testing.T) {
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if _, err := e.startServer("false"); err == nil {
		t.Fatal("a server that exits at once passed its health check")
	}
	if n := len(e.procs); n != 0 {
		t.Errorf("%d server processes still tracked after a failed start", n)
	}
	e.close()
	if _, err := os.Stat(e.runDir); !os.IsNotExist(err) {
		t.Errorf("run directory %s survived close (stat: %v)", e.runDir, err)
	}
	if _, err := e.startServer("false"); err == nil {
		t.Error("startServer worked on a closed env")
	}
}

// TestQuickSmoke runs all four workloads end to end and traced with 1 s
// windows and small inputs: every reply must match the reference, every
// named metric must be in the output, and the result line must have the
// contract's shape.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs hique-server; skipped with -short")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	cfg := config{seed: 11, window: time.Second, warmup: 300 * time.Millisecond, setups: 1, quick: true, traceTo: t.TempDir()}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			res, err := runOne(e, w, cfg, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.correct() || res.attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d, problems %v", w.name, traced, res.attempted, res.failed, res.problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(resultLine(res)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s: result line: %v", w.name, err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: result line has %d metrics, want %d: %s", w.name, traced, len(line.Metrics), len(defs), resultLine(res))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or with the wrong unit", w.name, traced, d.Name)
					continue
				}
				if !traced && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, *m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.traceTo, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
		}
	}
	// Data and probe directories go when their instance closes, not only
	// when the run ends.
	entries, err := os.ReadDir(e.runDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, en := range entries {
		if en.IsDir() {
			t.Errorf("directory %s outlived its instance", en.Name())
		}
	}
}
