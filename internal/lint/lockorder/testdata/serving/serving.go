// Fixture for the lockorder analyzer, type-checked against the linttest
// stubs under import path "hique" (the serving layer, so rule 1 stays
// quiet and the ordering rules are what fires).
package hique

import (
	"sort"

	"hique/internal/catalog"
)

// lockSet is the serving layer's ordered entry set: ID-sorted by
// construction (checked where one is built).
type lockSet []*catalog.TableEntry

// lockEntries is the sanctioned lock loop: it ranges over a lockSet and
// leaves the releases to its caller. Must produce no diagnostics.
func lockEntries(set lockSet) {
	for _, e := range set {
		e.Lock()
	}
}

// lockTables is the lockSet constructor: sort by table ID, convert,
// lock, and hand the releases to the returned closure. Must produce no
// diagnostics.
func lockTables(entries []*catalog.TableEntry) func() {
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID() < entries[j].ID() })
	set := lockSet(entries)
	lockEntries(set)
	return func() {
		for i := len(set) - 1; i >= 0; i-- {
			set[i].Unlock()
		}
	}
}

// unsortedSet forgot the sort: the type's name does not excuse an
// unordered set.
func unsortedSet(entries []*catalog.TableEntry) lockSet {
	return lockSet(entries) // want "lockSet built without sorting by table ID first"
}

func badPair(a, b *catalog.TableEntry) {
	a.Lock()
	b.Lock() // want "second table lock acquired while one may be held"
	b.Unlock()
	a.Unlock()
}

func badLeak(a *catalog.TableEntry, cond bool) {
	a.Lock()
	if cond {
		return // want "may still be held on this return path"
	}
	a.Unlock()
}

func helperAcquire(e *catalog.TableEntry) {
	e.RLock()
	e.RUnlock()
}

func badCallWhileHeld(a, b *catalog.TableEntry) {
	a.Lock()
	helperAcquire(b) // want `call to helperAcquire \(which acquires table locks\) while a table lock is held`
	a.Unlock()
}

// indirectAcquire takes no lock itself, only through helperAcquire.
func indirectAcquire(e *catalog.TableEntry) { helperAcquire(e) }

func badIndirectWhileHeld(a, b *catalog.TableEntry) {
	a.Lock()
	indirectAcquire(b) // want `call to indirectAcquire \(which acquires table locks\) while a table lock is held`
	a.Unlock()
}

func badNested(a *catalog.TableEntry, entries []*catalog.TableEntry) {
	a.Lock()
	defer a.Unlock()
	unlock := lockTables(entries) // want "lockTables called while a table lock is already held"
	unlock()
}

func badDiscard(entries []*catalog.TableEntry) {
	_ = lockTables(entries) // want "unlock function is discarded"
}

func badLoop(entries []*catalog.TableEntry) { // want `table lock \(e\) may still be held`
	for _, e := range entries {
		e.Lock() // want "table locks acquired in a loop" "second table lock acquired"
	}
}

// scanAll releases within each iteration — a legal per-entry critical
// section. Must produce no diagnostics.
func scanAll(entries []*catalog.TableEntry) int {
	n := 0
	for _, e := range entries {
		e.RLock()
		n += e.NumRows()
		e.RUnlock()
	}
	return n
}
