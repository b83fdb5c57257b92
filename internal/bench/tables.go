package bench

import (
	"fmt"
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
// four §VI-A queries under unoptimized and optimized code for each code
// class. Go has no post-hoc -O0/-O2 switch, so the axis is reproduced at
// the level the substitution table in DESIGN.md describes: "-O0" runs the
// boxed, per-step-indirection variant of each class, "-O2" the fused
// type-specialised variant. For the holistic row these are exactly the
// codegen OptO0/OptO2 executables of the same generated plan.
func Tab2(scale float64) Result {
	res := Result{
		ID:    "TabII",
		Title: "Effect of code optimisation level (response times in seconds)",
		Header: []string{"Implementation",
			"Join1 -O0", "Join1 -O2",
			"Join2 -O0", "Join2 -O2",
			"Agg1 -O0", "Agg1 -O2",
			"Agg2 -O0", "Agg2 -O2"},
	}

	// The four workloads as SQL over catalogued tables.
	j1n := max(int(10000*scale), 200)
	j2n := max(int(1000000*scale), 2000)
	an := max(int(1000000*scale), 2000)

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
		mkAgg(an, max(int(100000*scale), 100), plan.HybridAggregation),
		mkAgg(an, 10, plan.MapAggregation),
	}

	type rowSpec struct {
		name     string
		o0Engine plan.Executor
		o2Engine plan.Executor
	}
	rows := []rowSpec{
		{"Iterators", volcano.NewGeneric(), volcano.NewOptimized()},
		{"Holistic (generated)", codegen.Executor{Level: codegen.OptO0}, codegen.Executor{Level: codegen.OptO2}},
	}
	for _, r := range rows {
		cells := []string{r.name}
		for _, w := range workloads {
			p := mustPlan(w.cat, w.query, w.opts)
			cells = append(cells, fmt.Sprintf("%.3f", runTimed(r.o0Engine, p, 1)))
			cells = append(cells, fmt.Sprintf("%.3f", runTimed(r.o2Engine, p, 1)))
		}
		res.Rows = append(res.Rows, cells)
	}

	// Hard-coded shapes: generic vs optimized plays the same role.
	outer1 := hardcoded.BuildJoinInput("o", j1n, max(j1n/1000, 2))
	inner1 := hardcoded.BuildJoinInput("i", j1n, max(j1n/1000, 2))
	outer2 := hardcoded.BuildJoinInput("o", j2n, max(j2n/10, 2))
	inner2 := hardcoded.BuildJoinInput("i", j2n, max(j2n/10, 2))
	agg1 := hardcoded.BuildAggInput(an, max(int(100000*scale), 100))
	agg2 := hardcoded.BuildAggInput(an, 10)
	parts := partitionsFor(j2n)
	hcRow := []string{"Hard-coded"}
	for _, pair := range [][2]hardcoded.Shape{
		{hardcoded.GenericHardcoded, hardcoded.OptimizedHardcoded},
	} {
		g, o := pair[0], pair[1]
		hcRow = append(hcRow,
			secs(timeIt(1, func() { hardcoded.RunMergeJoin(g, outer1, inner1, nil) })),
			secs(timeIt(1, func() { hardcoded.RunMergeJoin(o, outer1, inner1, nil) })),
			secs(timeIt(1, func() { hardcoded.RunHybridJoin(g, outer2, inner2, parts, nil) })),
			secs(timeIt(1, func() { hardcoded.RunHybridJoin(o, outer2, inner2, parts, nil) })),
			secs(timeIt(1, func() { hardcoded.RunHybridAgg(g, agg1, parts, nil) })),
			secs(timeIt(1, func() { hardcoded.RunHybridAgg(o, agg1, parts, nil) })),
			secs(timeIt(1, func() { hardcoded.RunMapAgg(g, agg2, 10, nil) })),
			secs(timeIt(1, func() { hardcoded.RunMapAgg(o, agg2, 10, nil) })),
		)
	}
	res.Rows = append(res.Rows, hcRow)
	res.Notes = []string{
		"-O0 = boxed values + per-step indirection; -O2 = fused type-specialised code (DESIGN.md substitution).",
		"Paper shape to verify: optimisation helps most on the inflationary join; least where staging dominates.",
	}
	return res
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
			"Compile -O0 (ms)", "Compile -O2 (ms)", "Source (bytes)"},
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
		compile := func(level codegen.OptLevel) func() {
			return func() {
				cq, err := codegen.Generate(p, level)
				if err == nil {
					err = cq.EnsureSource()
				}
				if err != nil {
					panic(err)
				}
			}
		}
		c0 := timeIt(5, compile(codegen.OptO0))
		c2 := timeIt(5, compile(codegen.OptO2))

		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("#%d", n),
			ms(parseT), ms(optT), ms(genT), ms(c0), ms(c2),
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
