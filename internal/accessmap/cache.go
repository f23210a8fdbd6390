package accessmap

import "sync"

// Cache memoises built Maps across protection units, keyed on the exact
// register contents a port's Check reads. Processes reuse a handful of
// layouts across context switches, scenarios and boards, so a unit whose
// configuration generation moved usually finds the map for its new
// contents already built — by itself on an earlier switch, or by another
// board.
//
// Sharing is sound because a Map is immutable after Build and Check is a
// pure function of the key: two units with equal keys answer every
// query identically, so the map one derived is the map the other would
// derive. The cache never decides anything itself: keys match only on
// exact equality of every register, and eviction only costs a rebuild.
//
// A Cache is safe for concurrent use; campaign workers share one per
// port.
type Cache[K comparable] struct {
	mu     sync.Mutex
	bound  int
	maps   map[K]*Map
	hits   uint64
	misses uint64
}

// CacheStats is a point-in-time view of a Cache's counters.
type CacheStats struct {
	Hits   uint64 // lookups answered by an already-built map
	Misses uint64 // lookups that ran Build
	Len    int    // maps currently held (never above the bound)
}

// NewCache returns a cache holding at most bound maps (bound ≥ 1).
func NewCache[K comparable](bound int) *Cache[K] {
	return &Cache[K]{bound: bound, maps: make(map[K]*Map)}
}

// Get returns the map cached under key, running build and inserting its
// result on a miss. build runs outside the lock, so two callers missing
// on the same key at once may both build; the first insert wins and both
// get equal maps either way. At the bound an arbitrary entry is evicted.
func (c *Cache[K]) Get(key K, build func() *Map) *Map {
	c.mu.Lock()
	if m, ok := c.maps[key]; ok {
		c.hits++
		c.mu.Unlock()
		return m
	}
	c.misses++
	c.mu.Unlock()

	m := build()

	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.maps[key]; ok {
		return old
	}
	if len(c.maps) >= c.bound {
		for k := range c.maps {
			delete(c.maps, k)
			break
		}
	}
	c.maps[key] = m
	return m
}

// Stats returns the cache's hit and miss counts and current size.
func (c *Cache[K]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Len: len(c.maps)}
}
