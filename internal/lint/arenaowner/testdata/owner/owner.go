// Fixture for the arenaowner analyzer: pooled arena values must be
// released exactly once on every path.
package codegen

import "hique/internal/storage"

var errNope error

func leak(cond bool) error {
	t := storage.NewPooledTable()
	if cond {
		return errNope // want `pooled arena value "t" may leak on this return path`
	}
	t.Release()
	return nil
}

func double() {
	t := storage.NewPooledTable()
	t.Release()
	t.Release() // want `pooled arena value "t" released twice on this path`
}

func useAfter() int {
	t := storage.NewPooledTable()
	t.Release()
	return t.NumRows() // want `pooled arena value "t" used after Release`
}

// goodDefer covers every exit with one deferred Release. Clean.
func goodDefer() {
	t := storage.NewPooledTable()
	defer t.Release()
	t.AppendRow()
}

func doubleDefer() {
	t := storage.NewPooledTable()
	defer t.Release()
	defer t.Release() // want `pooled arena value "t" released twice by deferred Release`
}

// transferOut hands ownership to the caller. Clean.
func transferOut() *storage.Table {
	t := storage.NewPooledTable()
	return t
}

func reassign() {
	t := storage.NewPooledTable()
	t = storage.NewPooledTable() // want `pooled arena value "t" reassigned while still owned`
	t.Release()
}

// borrowed values passed to a callee are the callee's to balance. Clean.
func stage(t *storage.Table) {}

func borrow() {
	t := storage.NewPooledTable()
	stage(t)
}
