package enginetest

import (
	"hique/internal/dsm"
	"hique/internal/plan"
	"hique/internal/volcano"
)

// Named is one engine a DB can be opened with, under the name the
// DB-level tests report it by.
type Named struct {
	Name string
	// Engine is the executor to inject; nil is the DB's default compiled
	// -O2 pipeline.
	Engine plan.Executor
}

// DBEngines returns the four engines every DB-level differential,
// durability and crash test covers. The values are fresh on each call:
// the column store caches its decompositions per table.
func DBEngines() []Named {
	return []Named{
		{"holistic", nil},
		{"generic-iterators", volcano.NewGeneric()},
		{"optimized-iterators", volcano.NewOptimized()},
		{"column-store", dsm.NewEngine()},
	}
}
