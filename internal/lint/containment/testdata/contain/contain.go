// Fixture for the containment analyzer: writer-lock mutations must run
// under a containPanic-style recover frame registered AFTER the unlock
// defer (LIFO runs the recover first on unwind).
package hique

import "hique/internal/catalog"

func containPanic(err *error) {}

func mutate() {}

func grow() int { return 0 }

// applyLockedGood is the canonical shape A: unlock defer first, recover
// frame second. Clean.
func applyLockedGood(e *catalog.TableEntry) (err error) {
	e.Lock()
	defer e.Unlock()
	defer containPanic(&err)
	mutate()
	return nil
}

func badOrder(e *catalog.TableEntry) (err error) {
	e.Lock()
	defer containPanic(&err)
	defer e.Unlock() // want "unlock defer registered after the recover frame"
	mutate()
	return nil
}

func noRecover(e *catalog.TableEntry) { // want "no containPanic-style recover frame"
	e.Lock()
	defer e.Unlock()
	mutate()
}

func manualBad(e *catalog.TableEntry) {
	e.Lock()
	mutate() // want "call to mutate while manualBad holds a manually released writer lock"
	e.Unlock()
}

// manualTrivial only calls panic-trivial accessors inside the region.
// Clean.
func manualTrivial(e *catalog.TableEntry) int {
	e.Lock()
	n := e.NumRows()
	e.Unlock()
	return n
}

// releaseContained is a containing releaser: it defers the unlock of the
// entry it receives and defers the recover frame; callers may hand it a
// held lock.
func releaseContained(e *catalog.TableEntry) (err error) {
	defer e.Unlock()
	defer containPanic(&err)
	mutate()
	return nil
}

// lockAndFinish hands the held lock to the containing releaser. Clean.
func lockAndFinish(e *catalog.TableEntry) error {
	e.Lock()
	return releaseContained(e)
}

// readerEntry uses an entry reader lock; out of scope too. Clean.
func readerEntry(e *catalog.TableEntry) int {
	e.RLock()
	n := grow()
	e.RUnlock()
	return n
}
