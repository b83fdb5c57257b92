// Command benchmark is HIQUE's one benchmark: four named workloads, six
// end-to-end metrics a user of the system sees (plus failed_share), and a
// per-layer waterfall measured from outside the layers. BENCHMARK.json at
// the repository root declares it; README.md in this directory says what
// every workload and metric is for.
//
// Usage, from the repository root:
//
//	go run ./benchmark -seed 7                       # everything: both runs of all four workloads
//	go run ./benchmark -seed 7 -workload cold_prepare
//	go run ./benchmark -workload W -seed N -seconds S -trace 0   # end-to-end metrics only
//	go run ./benchmark -workload W -seed N -seconds S -trace 1   # per-layer metrics only
//	go run ./benchmark -seed 7 -repeat               # the end-to-end set twice, compared with the bounds
//	go run ./benchmark -quick                        # 1 s windows, small inputs: a smoke run
//
// Every run prints its metrics by name with unit and sample count, then
// one JSON object on a line of its own: {"correct", "attempted",
// "failed", "metrics"}. The exit code is non-zero when any reply differed
// from the reference engine, an assertion failed, arena pages leaked, or
// a named metric is missing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the window is the same
// on every commit.
const defaultSeconds = 20

func main() { os.Exit(realMain()) }

func realMain() int {
	name := flag.String("workload", "", "workload to run (default: all four): "+workloadNames())
	seed := flag.Int64("seed", 1, "seed of the generated inputs (keys, literals, shapes, row payloads); the TPC-H data seed is fixed at 42")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run (default: both)")
	repeat := flag.Bool("repeat", false, "run the end-to-end set twice and compare the two with the bounds")
	quick := flag.Bool("quick", false, "smoke run: 1 s window, small inputs, one set-up")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	traceSet, secondsSet := false, false
	flag.Visit(func(f *flag.Flag) {
		traceSet = traceSet || f.Name == "trace"
		secondsSet = secondsSet || f.Name == "seconds"
	})
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}

	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *name, workloadNames())
			return 2
		}
		selected = []workload{*w}
	}

	cfg := config{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), warmup: 3 * time.Second, setups: 3}
	if *quick {
		cfg.quick, cfg.warmup, cfg.setups = true, 300*time.Millisecond, 1
		if !secondsSet {
			cfg.window = time.Second
		}
	}
	if cfg.window <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		return 2
	}

	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer e.close()
	cfg.traceTo = e.outDir
	// SIGINT/SIGTERM: kill the server subprocess and remove the run
	// directory before exiting; deferred calls do not run past os.Exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(130)
	}()

	if *repeat {
		return runRepeat(e, selected, cfg)
	}
	kinds := []bool{false, true}
	if traceSet {
		kinds = []bool{*trace == 1}
	}
	ok := true
	for i := range selected {
		for _, traced := range kinds {
			res, err := runOne(e, &selected[i], cfg, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", selected[i].name, err)
				return 1
			}
			printResult(res, cfg)
			ok = ok && res.correct()
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func runOne(e *env, w *workload, cfg config, traced bool) (*result, error) {
	if traced {
		return runTraced(e, w, cfg)
	}
	return runEndToEnd(e, w, cfg)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// printResult prints every metric of a run by name, then the run's
// result line.
func printResult(res *result, cfg config) {
	defs, kind := endToEnd, "end to end, tracing off"
	if res.traced {
		defs, kind = perLayer, "per layer, traced run"
	}
	fmt.Printf("== %s  seed=%d  window=%s  (%s)\n", res.workload, cfg.seed, cfg.window, kind)
	fmt.Printf("%-30s %16s  %-6s %9s  %s\n", "metric", "value", "unit", "samples", "note")
	for _, d := range defs {
		v := res.metrics[d.Name]
		fmt.Printf("%-30s %16.6g  %-6s %9d  %s\n", d.Name, v.V, v.Unit, v.N, v.Note)
	}
	fmt.Printf("%-30s %16.6g  %-6s %9d  %s\n", "failed_share", float64(res.failed)/float64(res.attempted), "share", res.attempted,
		"errors + non-2xx + replies that differ from the reference")
	for _, n := range res.notes {
		fmt.Println("note:", n)
	}
	for _, p := range res.problems {
		fmt.Println("PROBLEM:", p)
	}
	fmt.Println(resultLine(res))
}

// resultLine renders the run's JSON object: exactly the keys correct,
// attempted, failed and metrics, each value with all its digits.
func resultLine(res *result) string {
	type jsonValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonValue, len(res.metrics))
	for name, v := range res.metrics {
		metrics[name] = jsonValue{Value: v.V, Unit: v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]jsonValue `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, metrics})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(line)
}

// runRepeat runs the end-to-end set twice back to back on the same code
// and prints, per metric and workload, both values, their ratio, and
// whether the second is worse than the first by more than the bound.
func runRepeat(e *env, selected []workload, cfg config) int {
	sets := [2]map[string]*result{{}, {}}
	ok := true
	for s := range sets {
		for i := range selected {
			res, err := runEndToEnd(e, &selected[i], cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", selected[i].name, err)
				return 1
			}
			fmt.Printf("-- set %d\n", s+1)
			printResult(res, cfg)
			sets[s][selected[i].name] = res
			ok = ok && res.correct()
		}
	}
	fmt.Printf("== repeat: two sets of the same code, seed=%d window=%s\n", cfg.seed, cfg.window)
	fmt.Printf("%-20s %-18s %14s %14s %8s %6s  %s\n", "workload", "metric", "first", "second", "ratio", "bound", "verdict")
	unresolved := 0
	for i := range selected {
		w := selected[i].name
		for _, d := range endToEnd {
			a, b := sets[0][w].metrics[d.Name].V, sets[1][w].metrics[d.Name].V
			verdict := "PASS"
			if worseBy(d, a, b) > d.Bound {
				verdict = "UNRESOLVED"
				unresolved++
			}
			fmt.Printf("%-20s %-18s %14.6g %14.6g %8.4f %6.2f  %s\n", w, d.Name, a, b, b/a, d.Bound, verdict)
		}
		fa, fb := sets[0][w].failed, sets[1][w].failed
		fmt.Printf("%-20s %-18s %14d %14d %8s %6s  %s\n", w, "failed", fa, fb, "", "any", map[bool]string{true: "PASS", false: "FAIL"}[fb <= fa && fa == 0])
	}
	fmt.Printf("repeat: %d of %d metric x workload pairs differ by more than their bound between two runs of the same code\n",
		unresolved, len(selected)*len(endToEnd))
	if !ok {
		return 1
	}
	return 0
}

// worseBy is the share of a by which b is worse, negative when b is
// better.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
