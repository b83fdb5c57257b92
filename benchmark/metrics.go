package main

import "strings"

// The metric tables are the benchmark's fixed vocabulary: BENCHMARK.json
// lists exactly these names (TestBenchmarkJSONMatchesTables pins the two
// together), and every later performance or simplicity PR is judged by
// them, so a name is never reused for a different measurement.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// On lists the workloads a per-layer metric is measured on, by
	// initial: (T)pch_analytic, serve_(P)oint_http, (C)old_prepare,
	// serve_(M)ixed_rw_http. Empty means all four.
	On string `json:"-"`
}

var workloadInitial = map[string]string{
	"tpch_analytic": "T", "serve_point_http": "P", "cold_prepare": "C", "serve_mixed_rw_http": "M",
}

// appliesTo reports whether the metric is measured on the workload.
func (d metricDef) appliesTo(workload string) bool {
	return d.On == "" || strings.Contains(d.On, workloadInitial[workload])
}

// endToEnd are the numbers a user of the system sees, measured with
// tracing off. failed_share is printed beside them but travels in the
// result line's attempted/failed counts: it is 0 on a quiet run, and a
// regression bound cannot be a share of 0. The bounds are what the shared
// machine this runs on can resolve (README.md, "Run-to-run spread"), not
// what one would like: ISSUE 11 asked for 10 %.
var endToEnd = []metricDef{
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the single-layer numbers of the traced run; layers are
// this repository's packages plus the benchmark's own client side. A
// metric that does not apply to a workload reports 0 with no samples.
var perLayer = []metricDef{
	{Name: "sql.shape_us", Unit: "us", Better: "lower"},
	{Name: "sql.shape_allocs", Unit: "count", Better: "lower"},
	{Name: "sql.parse_us", Unit: "us", Better: "lower", On: "C"},
	{Name: "sql.parse_allocs", Unit: "count", Better: "lower", On: "C"},

	{Name: "plan.build_us", Unit: "us", Better: "lower", On: "C"},
	{Name: "plan.build_allocs", Unit: "count", Better: "lower", On: "C"},

	{Name: "codegen.generate_us", Unit: "us", Better: "lower", On: "C"},
	{Name: "codegen.compile_us", Unit: "us", Better: "lower", On: "C"},
	{Name: "codegen.source_bytes", Unit: "count", Better: "lower", On: "C"},
	{Name: "codegen.generate_allocs", Unit: "count", Better: "lower", On: "C"},
	{Name: "codegen.run_q1_ms", Unit: "ms", Better: "lower", On: "T"},
	{Name: "codegen.run_q3_ms", Unit: "ms", Better: "lower", On: "T"},
	{Name: "codegen.run_q6_ms", Unit: "ms", Better: "lower", On: "T"},
	{Name: "codegen.run_q10_ms", Unit: "ms", Better: "lower", On: "T"},
	{Name: "codegen.run_us", Unit: "us", Better: "lower"},
	{Name: "codegen.run_allocs", Unit: "count", Better: "lower"},
	{Name: "codegen.fused_share", Unit: "share", Better: "higher"},

	{Name: "core.execute_q1_ms", Unit: "ms", Better: "lower", On: "T"},
	{Name: "core.execute_q3_ms", Unit: "ms", Better: "lower", On: "T"},
	{Name: "core.execute_q6_ms", Unit: "ms", Better: "lower", On: "T"},
	{Name: "core.execute_q10_ms", Unit: "ms", Better: "lower", On: "T"},

	{Name: "morsel.parallel_queries", Unit: "count", Better: "higher"},
	{Name: "morsel.morsels", Unit: "count", Better: "higher"},
	{Name: "morsel.serial_ratio_q1", Unit: "ratio", Better: "higher", On: "T"},
	{Name: "morsel.serial_ratio_q3", Unit: "ratio", Better: "higher", On: "T"},

	{Name: "plancache.hit_share", Unit: "share", Better: "higher"},
	{Name: "plancache.evictions", Unit: "count", Better: "lower"},
	{Name: "plancache.invalidations", Unit: "count", Better: "lower"},
	{Name: "plancache.get_ns", Unit: "ns", Better: "lower"},

	{Name: "hique.query_us", Unit: "us", Better: "lower"},
	{Name: "hique.query_self_us", Unit: "us", Better: "lower"},
	{Name: "hique.query_allocs", Unit: "count", Better: "lower"},
	{Name: "hique.exec_us", Unit: "us", Better: "lower", On: "M"},
	{Name: "hique.exec_allocs", Unit: "count", Better: "lower", On: "M"},
	{Name: "hique.lock_wait_us_per_op", Unit: "us", Better: "lower"},

	{Name: "wal.append_us", Unit: "us", Better: "lower", On: "M"},
	{Name: "wal.commit_us", Unit: "us", Better: "lower", On: "M"},
	{Name: "wal.fsyncs_per_stmt", Unit: "ratio", Better: "lower"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "wal.recovery_ms", Unit: "ms", Better: "lower", On: "M"},

	{Name: "storage.pages_recycled", Unit: "count", Better: "higher"},
	{Name: "storage.pages_in_use_end", Unit: "count", Better: "lower"},

	{Name: "server.handler_us", Unit: "us", Better: "lower", On: "PM"},
	{Name: "server.handler_allocs", Unit: "count", Better: "lower", On: "PM"},
	{Name: "server.self_us", Unit: "us", Better: "lower", On: "PM"},
	{Name: "server.resp_bytes_per_row", Unit: "count", Better: "lower", On: "PM"},
	{Name: "server.rejected", Unit: "count", Better: "lower", On: "PM"},

	{Name: "client.transport_us", Unit: "us", Better: "lower", On: "PM"},
	{Name: "client.loadgen_overhead_us", Unit: "us", Better: "lower", On: "PM"},
	{Name: "client.point_p50_us", Unit: "us", Better: "lower", On: "P"},
	{Name: "client.range50_p50_us", Unit: "us", Better: "lower", On: "P"},
	{Name: "client.read_point_p50_us", Unit: "us", Better: "lower", On: "M"},
	{Name: "client.read_scan_p50_us", Unit: "us", Better: "lower", On: "M"},
	{Name: "client.insert_p50_us", Unit: "us", Better: "lower", On: "M"},
	{Name: "client.delete_p50_us", Unit: "us", Better: "lower", On: "M"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// value is one reported measurement: the number, its unit, how many
// samples stand behind it, and an optional note (the percentile a tail
// was read at, for example).
type value struct {
	V    float64
	Unit string
	N    int
	Note string
}

// values maps metric name to measurement for one run.
type values map[string]value

func (vs values) set(name string, v float64, n int) { vs.setNote(name, v, n, "") }

func (vs values) setNote(name string, v float64, n int, note string) {
	vs[name] = value{V: v, Unit: unitOf(name), N: n, Note: note}
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
