// Command hique-bench regenerates the paper's evaluation: every table and
// figure of §VI, printed as text tables.
//
// Usage:
//
//	hique-bench -experiment all                  # everything, default scales
//	hique-bench -experiment fig8 -sf 1.0         # paper-sized TPC-H
//	hique-bench -experiment fig5 -scale 1.0      # paper-sized microbenchmarks
//	hique-bench -json BENCH_serving.json         # machine-readable serving suite
//	hique-bench -json BENCH_parallel.json -suite parallel
//	                                             # morsel-driven parallel suite
//
// Experiments: tab1 fig5 fig6 tab2 fig7a fig7b fig7c fig7d fig8 tab3 all.
//
// -json runs a micro-benchmark suite and writes name / ns_per_op /
// allocs_per_op / bytes_per_op rows to the given file ("-" for stdout),
// so the serving-path perf trajectory can be tracked across revisions as
// committed BENCH_*.json snapshots. -suite selects serving (the
// point-query shape-cache and cold-vs-warm workloads; the default) or
// parallel (fused join+aggregation and range scans at 1/2/4/8 morsel
// workers).
//
// -gate compares the freshly measured serving-path rows against a committed
// snapshot and exits non-zero on regression: allocs/op must not exceed
// the recorded value at all (allocation counts are deterministic), and
// ns/op must stay within -gate-slack of it (latency is noisy on shared
// runners, so the default slack is generous; tighten it on quiet
// hardware). This is the CI perf gate: telemetry is always on, so a pass
// means the serving path carries its metrics within the envelope.
//
// Two further suites target a LIVE server over HTTP (start one with
// hique-server -tpch 0.01), modeled on cri-tools' critest/benchmark
// split:
//
//	hique-bench -suite conformance -addr http://localhost:8080 -sf 0.01
//	    differential end-to-end conformance: TPC-H (golden row counts at
//	    SF 0.01) plus a feature-matrix corpus, every query answered by
//	    both the server and an in-process reference build of the same
//	    catalogue; one PASS/FAIL line per case, non-zero exit on failure.
//	hique-bench -suite load -addr http://localhost:8080 -json BENCH_load.json
//	    open-loop load generator: weighted query mix (built-in TPC-H
//	    serving mix, or a -scenario JSON file) fired at -rate qps for
//	    -duration, reporting achieved QPS and latency percentiles.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hique/internal/bench"
	"hique/internal/bench/serving"
)

// gatedWorkloads are the serving-path rows the -gate flag enforces: the
// warm shapes a query-serving deployment actually sits in steady-state,
// and the two plan-cache misses, whose allocations show whether
// preparation rebuilds what the catalogue already holds (value
// directories and their compiled lookups).
var gatedWorkloads = []string{
	"PointQueryShapeCache/auto-param",
	"PointQueryShapeCache/explicit-params",
	"ServingColdVsWarm/cold",
	"ServingColdVsWarm/warm",
	"JoinAgg/warm-fused",
	"JoinAgg/warm-hit-into",
	"JoinAgg/cold",
}

func main() {
	experiment := flag.String("experiment", "all", "experiment id ("+strings.Join(bench.Experiments(), ", ")+", or all)")
	scale := flag.Float64("scale", 0.1, "microbenchmark scale relative to the paper's workloads (1.0 = paper size)")
	sf := flag.Float64("sf", 0.1, "TPC-H scale factor (1.0 = paper size, ~6M lineitems)")
	jsonOut := flag.String("json", "", "run the serving micro-benchmarks and write JSON results to this file (\"-\" for stdout)")
	suite := flag.String("suite", "serving", "suite to run: serving / parallel (micro-benchmarks for -json), conformance (differential end-to-end vs a live server at -addr), load (open-loop HTTP load generator)")
	gate := flag.String("gate", "", "compare warm-path results against this BENCH_*.json snapshot and fail on regression")
	gateSlack := flag.Float64("gate-slack", 2.0, "latency regression factor tolerated by -gate (allocs are gated exactly)")
	addr := flag.String("addr", "http://localhost:8080", "live hique-server base URL for -suite conformance / load")
	scenario := flag.String("scenario", "", "scenario JSON file for -suite load (empty = built-in TPC-H serving mix)")
	rate := flag.Float64("rate", 0, "target request rate in qps for -suite load (0 = scenario default)")
	duration := flag.Duration("duration", 0, "wall-clock run length for -suite load (0 = scenario default)")
	flag.Parse()

	switch *suite {
	case "conformance":
		if err := runConformance(*addr, *sf); err != nil {
			fatal(err)
		}
		return
	case "load":
		if err := runLoad(*addr, *scenario, *rate, *duration, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}

	if *jsonOut != "" || *gate != "" {
		var results []serving.MicroResult
		switch *suite {
		case "serving":
			results = serving.Micro()
		case "parallel":
			if *gate != "" {
				// The gate's envelope rows are the warm serial serving
				// shapes; the parallel suite does not measure them.
				fatal(fmt.Errorf("-gate requires -suite serving"))
			}
			results = serving.Parallel()
		default:
			fatal(fmt.Errorf("unknown suite %q (serving, parallel, conformance, load)", *suite))
		}
		if *jsonOut != "" {
			data, err := json.MarshalIndent(results, "", "  ")
			if err != nil {
				fatal(err)
			}
			data = append(data, '\n')
			if *jsonOut == "-" {
				os.Stdout.Write(data)
			} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
				fatal(err)
			}
		}
		if *gate != "" {
			if err := runGate(*gate, *gateSlack, results); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "gate: serving path within envelope of %s (slack %.2gx)\n", *gate, *gateSlack)
		}
		return
	}

	start := time.Now()
	var results []bench.Result
	if *experiment == "all" {
		results = bench.All(*scale, *sf)
	} else {
		results = bench.Run(*experiment, *scale, *sf)
	}
	if results == nil {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; options: %s, all\n",
			*experiment, strings.Join(bench.Experiments(), ", "))
		os.Exit(2)
	}
	fmt.Printf("HIQUE evaluation harness (scale=%.3f, sf=%.3f)\n\n", *scale, *sf)
	for _, r := range results {
		fmt.Println(r.Format())
	}
	fmt.Printf("total harness time: %s\n", time.Since(start).Round(time.Millisecond))
}

// runGate checks the measured warm-path rows against the committed
// snapshot at path.
func runGate(path string, slack float64, results []serving.MicroResult) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var envelope []serving.MicroResult
	if err := json.Unmarshal(data, &envelope); err != nil {
		return fmt.Errorf("gate: parsing %s: %w", path, err)
	}
	byName := make(map[string]serving.MicroResult, len(envelope))
	for _, e := range envelope {
		byName[e.Name] = e
	}
	measured := make(map[string]serving.MicroResult, len(results))
	for _, r := range results {
		measured[r.Name] = r
	}
	var failures []string
	for _, name := range gatedWorkloads {
		want, ok := byName[name]
		if !ok {
			return fmt.Errorf("gate: %s has no row %q — regenerate the snapshot", path, name)
		}
		got, ok := measured[name]
		if !ok {
			return fmt.Errorf("gate: benchmark %q did not run", name)
		}
		if got.AllocsPerOp > want.AllocsPerOp {
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op, envelope %d",
				name, got.AllocsPerOp, want.AllocsPerOp))
		}
		if limit := want.NsPerOp * slack; got.NsPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op, envelope %.0f x %.2g = %.0f",
				name, got.NsPerOp, want.NsPerOp, slack, limit))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("gate: serving path regressed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
