package bench

import (
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"hique/internal/catalog"
	"hique/internal/codegen"
	"hique/internal/hardcoded"
	"hique/internal/hwsim"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/tpch"
	"hique/internal/volcano"
)

// Tab1 prints the simulated machine's specification (paper Table I).
func Tab1() Result {
	m := hwsim.Core2Duo6300()
	return Result{
		ID:     "TabI",
		Title:  "Simulated platform specification (Intel Core 2 Duo 6300, paper Table I)",
		Header: []string{"Parameter", "Value"},
		Rows: [][]string{
			{"Number of cores", fmt.Sprintf("%d", m.Cores)},
			{"Frequency", fmt.Sprintf("%.2fGHz", float64(m.FrequencyMHz)/1000)},
			{"Cache line size", fmt.Sprintf("%dB", m.CacheLineSize)},
			{"I1-cache", fmt.Sprintf("%dKB (per core)", m.I1Size>>10)},
			{"D1-cache", fmt.Sprintf("%dKB (per core)", m.D1Size>>10)},
			{"L2-cache", fmt.Sprintf("%dMB (shared)", m.L2Size>>20)},
			{"L1-cache miss latency (sequential)", fmt.Sprintf("%d cycles", m.L1MissSeqCycles)},
			{"L1-cache miss latency (random)", fmt.Sprintf("%d cycles", m.L1MissRandCycles)},
			{"L2-cache miss latency (sequential)", fmt.Sprintf("%d cycles", m.L2MissSeqCycles)},
			{"L2-cache miss latency (random)", fmt.Sprintf("%d cycles", m.L2MissRandCycles)},
		},
		Notes: []string{"These constants parameterise the hwsim cache model used by Figures 5 and 6."},
	}
}

// Tab2 reproduces the compiler-optimisation study (paper Table II): the
// four §VI-A queries on each code class, timed at the optimisation level
// this binary was compiled at. As in the paper, -O0 and -O2 are two
// compilations of the same code: the default build is -O2, and
// -gcflags='hique/...=-N -l' (optimisations and inlining off) is -O0
// (DESIGN.md §1). One run fills one level's columns;
// the table is the pair of runs.
func Tab2(scale float64) Result {
	level := buildOptLevel()
	res := Result{
		ID:    "TabII",
		Title: fmt.Sprintf("Effect of code optimisation level, this build %s (response times in seconds)", level),
		Header: []string{"Implementation",
			"Join1 " + level, "Join2 " + level, "Agg1 " + level, "Agg2 " + level},
	}

	// The four workloads as SQL over catalogued tables.
	j1n := max(int(10000*scale), 200)
	j2n := max(int(1000000*scale), 2000)
	an := max(int(1000000*scale), 2000)
	aggGroups := max(int(100000*scale), 100)

	type workload struct {
		cat   *catalog.Catalog
		query string
		opts  plan.Options
	}
	mkJoin := func(n, distinct int, alg plan.JoinAlgorithm) workload {
		cat := catalog.New()
		cat.Register(tupleTable("jouter", "o", n, distinct))
		cat.Register(tupleTable("jinner", "i", n, distinct))
		opts := plan.DefaultOptions()
		opts.ForceJoinAlg = &alg
		return workload{cat, "SELECT of1, if1 FROM jouter, jinner WHERE jouter.okey = jinner.ikey", opts}
	}
	mkAgg := func(n, groups int, alg plan.AggAlgorithm) workload {
		cat := catalog.New()
		cat.Register(tupleTable("aggt", "a", n, groups))
		opts := plan.DefaultOptions()
		opts.ForceAggAlg = &alg
		return workload{cat, "SELECT akey, SUM(af1) AS s1, SUM(af2) AS s2 FROM aggt GROUP BY akey", opts}
	}
	workloads := []workload{
		mkJoin(j1n, max(j1n/1000, 2), plan.MergeJoin),
		mkJoin(j2n, max(j2n/10, 2), plan.HybridJoin),
		mkAgg(an, aggGroups, plan.HybridAggregation),
		mkAgg(an, 10, plan.MapAggregation),
	}
	engineRow := func(name string, e plan.Executor) []string {
		cells := []string{name}
		for _, w := range workloads {
			p := mustPlan(w.cat, w.query, w.opts)
			cells = append(cells, fmt.Sprintf("%.4f", runTimed(e, p, 1)))
		}
		return cells
	}

	outer1 := hardcoded.BuildJoinInput("o", j1n, max(j1n/1000, 2))
	inner1 := hardcoded.BuildJoinInput("i", j1n, max(j1n/1000, 2))
	outer2 := hardcoded.BuildJoinInput("o", j2n, max(j2n/10, 2))
	inner2 := hardcoded.BuildJoinInput("i", j2n, max(j2n/10, 2))
	agg1 := hardcoded.BuildAggInput(an, aggGroups)
	agg2 := hardcoded.BuildAggInput(an, 10)
	parts := partitionsFor(j2n)
	shapeRow := func(name string, s hardcoded.Shape) []string {
		return []string{name,
			secs(timeIt(1, func() { hardcoded.RunMergeJoin(s, outer1, inner1, nil) })),
			secs(timeIt(1, func() { hardcoded.RunHybridJoin(s, outer2, inner2, parts, nil) })),
			secs(timeIt(1, func() { hardcoded.RunHybridAgg(s, agg1, parts, nil) })),
			secs(timeIt(1, func() { hardcoded.RunMapAgg(s, agg2, 10, nil) })),
		}
	}

	res.Rows = [][]string{
		engineRow("Generic iterators", volcano.NewGeneric()),
		engineRow("Optimised iterators", volcano.NewOptimized()),
		shapeRow("Generic hard-coded", hardcoded.GenericHardcoded),
		shapeRow("Optimised hard-coded", hardcoded.OptimizedHardcoded),
		engineRow("HIQUE", codegen.Executor{}),
	}
	res.Notes = []string{
		"-O2: go run ./cmd/hique-bench -experiment tab2; -O0: the same with -gcflags='hique/...=-N -l'.",
		"Paper shape to verify: optimisation helps most on the inflationary join; least where staging dominates.",
	}
	return res
}

// buildOptLevel names the level this binary's own code was compiled at:
// "-O0" when its -gcflags setting turns optimisations off (-N), "-O2"
// otherwise. go build, go run and go test all record the setting.
func buildOptLevel() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key != "-gcflags" {
				continue
			}
			for _, f := range strings.Fields(s.Value) {
				if f == "-N" || strings.HasSuffix(f, "=-N") {
					return "-O0"
				}
			}
		}
	}
	return "-O2"
}

// Tab3 reproduces the query-preparation cost table (paper Table III):
// parse, optimize, generate, and compile times plus generated source sizes
// for the three TPC-H queries.
func Tab3(sf float64) Result {
	cat := tpch.Generate(tpch.Config{ScaleFactor: sf, Seed: 42})
	res := Result{
		ID:    "TabIII",
		Title: "Query preparation cost (TPC-H)",
		Header: []string{"Query", "Parse (ms)", "Optimize (ms)", "Generate (ms)",
			"Compile (ms)", "Source (bytes)"},
	}
	for _, n := range tpch.QueryNumbers() {
		q, _ := tpch.Query(n)

		parseT := timeIt(5, func() {
			if _, err := sql.Parse(q); err != nil {
				panic(err)
			}
		})
		stmt, _ := sql.Parse(q)

		var p *plan.Plan
		optT := timeIt(5, func() {
			var err error
			// Re-parse per run: Build mutates nothing, but use a fresh
			// statement to keep runs independent.
			s2, _ := sql.Parse(q)
			p, err = plan.Build(s2, cat)
			if err != nil {
				panic(err)
			}
		})
		_ = stmt

		var srcBytes int
		genT := timeIt(5, func() {
			srcBytes = len(codegen.EmitSource(p))
		})
		// Compile = closure construction + the emitted file's syntax
		// check, which Generate leaves to EnsureSource.
		compileT := timeIt(5, func() {
			cq, err := codegen.Generate(p, codegen.OptO2)
			if err == nil {
				err = cq.EnsureSource()
			}
			if err != nil {
				panic(err)
			}
		})

		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("#%d", n),
			ms(parseT), ms(optT), ms(genT), ms(compileT),
			fmt.Sprintf("%d", srcBytes),
		})
	}
	res.Notes = []string{
		"Compile = source syntax check (go/parser) + executable closure construction (DESIGN.md substitution for gcc + dlopen).",
		"Paper shape: parse/optimize/generate are trivial (<25ms); compilation dominates preparation.",
	}
	return res
}

func ms(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()*1000) }
