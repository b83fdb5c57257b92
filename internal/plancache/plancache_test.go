package plancache

import (
	"fmt"
	"testing"
)

type artefact struct{ id int }

func dummy() *artefact { return &artefact{} }

// get is the serving path's lookup protocol: GetStamped, then compare
// the stored stamp with the current catalogue stamp and Invalidate on a
// mismatch.
func get(c *Cache, key string, current uint64) (any, bool) {
	v, stamp, ok := c.GetStamped([]byte(key))
	if !ok {
		return nil, false
	}
	if stamp != current {
		c.Invalidate(key)
		return nil, false
	}
	return v, true
}

func TestHitMissCounters(t *testing.T) {
	c := New(4)
	if _, ok := get(c, "q1", 1); ok {
		t.Fatal("hit on empty cache")
	}
	q := dummy()
	c.Put("q1", 1, q)
	got, ok := get(c, "q1", 1)
	if !ok || got != q {
		t.Fatal("expected hit returning the stored query")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Invalidations != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", s)
	}
}

func TestVersionMismatchInvalidates(t *testing.T) {
	c := New(4)
	c.Put("q1", 1, dummy())
	if _, ok := get(c, "q1", 2); ok {
		t.Fatal("stale entry served despite version bump")
	}
	if _, ok := get(c, "q1", 1); ok {
		t.Fatal("invalidated entry still present")
	}
	s := c.Stats()
	if s.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", s.Invalidations)
	}
	if s.Misses != 2 {
		t.Fatalf("misses = %d, want 2", s.Misses)
	}
	if s.Entries != 0 {
		t.Fatalf("entries = %d, want 0", s.Entries)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Put("a", 1, dummy())
	c.Put("b", 1, dummy())
	if _, ok := get(c, "a", 1); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", 1, dummy()) // evicts b
	if _, ok := get(c, "b", 1); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := get(c, "a", 1); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := get(c, "c", 1); !ok {
		t.Fatal("c should be present")
	}
	s := c.Stats()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	if s.Entries != 2 {
		t.Fatalf("entries = %d, want 2", s.Entries)
	}
}

func TestPutReplacesInPlace(t *testing.T) {
	c := New(2)
	q1, q2 := dummy(), dummy()
	c.Put("a", 1, q1)
	c.Put("a", 2, q2)
	if got, ok := get(c, "a", 2); !ok || got != q2 {
		t.Fatal("replacement not visible")
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

func TestPurge(t *testing.T) {
	c := New(4)
	c.Put("a", 1, dummy())
	c.Put("b", 1, dummy())
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("len after purge = %d", c.Len())
	}
	if _, ok := get(c, "a", 1); ok {
		t.Fatal("purged entry served")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(16)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("q%d", (g+i)%32)
				if _, ok := get(c, key, uint64(i%3)); !ok {
					c.Put(key, uint64(i%3), dummy())
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	close(done)
	s := c.Stats()
	if s.Hits+s.Misses != 8*500 {
		t.Fatalf("lookups = %d, want %d", s.Hits+s.Misses, 8*500)
	}
}

func TestInvalidateReclassifiesHit(t *testing.T) {
	c := New(4)
	c.Put("q1", 1, dummy())
	// Two callers hit the same entry, then both reject it after their
	// under-lock re-check: each takes back its own hit, the entry drop
	// counts once.
	if _, ok := get(c, "q1", 1); !ok {
		t.Fatal("expected hit")
	}
	if _, ok := get(c, "q1", 1); !ok {
		t.Fatal("expected hit")
	}
	c.Invalidate("q1")
	c.Invalidate("q1")
	s := c.Stats()
	if s.Hits != 0 || s.Misses != 2 || s.Invalidations != 1 || s.Entries != 0 {
		t.Fatalf("stats = %+v, want 0 hits / 2 misses / 1 invalidation", s)
	}
}
