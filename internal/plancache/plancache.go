// Package plancache caches compiled holistic queries so repeated
// statements skip the whole preparation pipeline — parse, optimise,
// generate, compile — whose cost the paper quantifies in Table III. The
// cache is the amortisation layer of the serving subsystem: HIQUE's bet
// is that per-query code generation buys runtime speed at a measurable
// preparation cost, and a serving workload repeats queries, so the cost
// is paid once per distinct statement per catalogue version.
//
// Entries are keyed by codegen.CacheKey (normalised SQL + optimizer
// configuration) and stamped with a catalogue stamp (epoch + referenced
// tables' versions) taken at compile time. A lookup (GetStamped) returns
// the stored stamp; the caller compares it with the current stamp under
// the table locks it holds and calls Invalidate on a mismatch, which
// evicts the entry and turns the hit into a miss — stale plans
// self-invalidate on the next touch, no invalidation broadcast needed.
// Eviction is LRU.
//
// Callers: hique.DB owns two instances — the read cache (compiled-query
// entries wrapped with their metric handles) and the write cache (*plan.WritePlan
// values, "dml\0"-prefixed keys; the key spaces cannot collide). Cached
// values are immutable and shared across concurrent executions: the
// cache hands out the same pointer to every hitter, so anything
// per-execution (bind vectors, scratches, results) lives outside the
// cached artefact. GetStamped takes the key as bytes, so the warm path
// probes with a pooled buffer.
package plancache

import (
	"container/list"
	"sync"
)

// DefaultCapacity is the entry bound used when New is given a
// non-positive capacity.
const DefaultCapacity = 256

// Stats are the cache's monotonic counters plus its current size.
type Stats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"` // entries dropped on version mismatch
	Evictions     uint64 `json:"evictions"`     // entries dropped by LRU pressure
	Entries       int    `json:"entries"`
	Capacity      int    `json:"capacity"`
}

type entry struct {
	key   string
	stamp uint64
	value any
}

// Cache is a fixed-capacity LRU of compiled artefacts, safe for
// concurrent use. Values are opaque to the cache: the read path stores
// its compiled-query wrapper, the write path *plan.WritePlan — the two key
// spaces cannot collide (read keys are length-prefixed, write keys carry
// a distinct prefix), so each caller type-asserts its own entries.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used; values are *entry
	items    map[string]*list.Element

	hits, misses, invalidations, evictions uint64
}

// New creates a cache bounded to capacity entries (DefaultCapacity if
// capacity <= 0).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// GetStamped returns the value cached under key together with
// the catalogue stamp it was stored with, leaving validation to the
// caller: compare the stored stamp against the current catalogue stamp
// under the table locks and call Invalidate on a mismatch (which
// reclassifies this hit as a miss). The key is passed as bytes so a warm
// caller can probe with a pooled buffer — the lookup itself allocates
// nothing.
func (c *Cache) GetStamped(key []byte) (any, uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[string(key)]
	if !ok {
		c.misses++
		return nil, 0, false
	}
	e := el.Value.(*entry)
	c.ll.MoveToFront(el)
	c.hits++
	return e.value, e.stamp, true
}

// Put stores a compiled artefact under key with the catalogue stamp it
// was compiled against, evicting the least recently used entry if the
// cache is full.
func (c *Cache) Put(key string, stamp uint64, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		e.stamp = stamp
		e.value = v
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		if oldest != nil {
			c.ll.Remove(oldest)
			delete(c.items, oldest.Value.(*entry).key)
			c.evictions++
		}
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, stamp: stamp, value: v})
}

// Invalidate drops the entry under key after the caller's post-lookup
// validation failed (the stored stamp is not the current one: a writer
// raced in before the caller's table locks). The caller's premature hit
// is always reclassified as a miss — even when a concurrent invalidator
// already removed the entry, each rejecting caller had its own counted
// hit to take back — while the invalidation counter tracks entries
// actually dropped. Call only after a GetStamped on the same key
// returned true.
func (c *Cache) Invalidate(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.misses++
	if c.hits > 0 {
		c.hits--
	}
	el, ok := c.items[key]
	if !ok {
		return
	}
	c.ll.Remove(el)
	delete(c.items, key)
	c.invalidations++
}

// Purge empties the cache; counters are preserved.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element, c.capacity)
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Invalidations: c.invalidations,
		Evictions:     c.evictions,
		Entries:       c.ll.Len(),
		Capacity:      c.capacity,
	}
}
