package spec

import (
	"container/list"
	"sync"
)

// NetCache is a size-capped LRU cache of immutable topology state
// (Net: graph, roles, subnet partition, routing state), keyed by
// Spec.NetKey. It is the sweep engine's per-sweep dedup promoted
// to a shareable, bounded object: a sweep uses a private unbounded
// cache, while the daemon keeps one capped cache alive across every
// job it ever schedules, so repeated submissions over one topology
// rebuild routing exactly once and a long-lived process cannot
// accumulate every distinct topology it has ever seen.
//
// A NetCache is safe for concurrent use. Concurrent Gets of one key
// build once: later callers block until the first build finishes and
// share its result (or its error — failed builds are not cached).
type NetCache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // of *netEntry; front = most recently used
	byKey map[string]*netEntry
	stats NetCacheStats
}

// NetCacheStats is a point-in-time snapshot of a cache's counters.
type NetCacheStats struct {
	// Size is the number of entries currently cached (including builds
	// in flight).
	Size int `json:"size"`
	// Builds counts successful topology materializations performed
	// through the cache (rebuilds after eviction count again).
	Builds int `json:"builds"`
	// Hits counts Gets served without building: entries already cached,
	// including waits on a build another caller had in flight.
	Hits int `json:"hits"`
	// Evictions counts entries dropped to keep the cache at its cap.
	Evictions int `json:"evictions"`
}

// netEntry is one cached (or in-flight) build.
type netEntry struct {
	key   string
	elem  *list.Element
	ready chan struct{} // closed when the build finished
	done  bool          // set under mu once net/err are final
	net   *Net
	err   error
}

// NewNetCache returns an empty cache retaining at most cap nets;
// cap <= 0 means unbounded (the per-sweep configuration). Entries
// whose build is still in flight are never evicted, so the cache can
// transiently exceed its cap under concurrent misses.
func NewNetCache(cap int) *NetCache {
	return &NetCache{cap: cap, lru: list.New(), byKey: make(map[string]*netEntry)}
}

// Get returns the net cached under key, building it with build on a
// miss. The second result reports whether this call performed the
// build — the signal SweepStats.NetBuilds counts. Build errors are
// returned to every waiter but never cached: the next Get retries.
func (c *NetCache) Get(key string, build func() (*Net, error)) (*Net, bool, error) {
	c.mu.Lock()
	if e, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(e.elem)
		c.stats.Hits++
		c.mu.Unlock()
		<-e.ready
		return e.net, false, e.err
	}
	e := &netEntry{key: key, ready: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.byKey[key] = e
	c.mu.Unlock()

	net, err := build()

	c.mu.Lock()
	e.net, e.err, e.done = net, err, true
	if err != nil {
		c.removeLocked(e)
	} else {
		c.stats.Builds++
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.ready)
	return net, err == nil, err
}

// Stats returns a snapshot of the cache counters.
func (c *NetCache) Stats() NetCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = len(c.byKey)
	return s
}

// evictLocked drops least-recently-used completed entries until the
// cache is back at its cap.
func (c *NetCache) evictLocked() {
	for c.cap > 0 && len(c.byKey) > c.cap {
		var victim *netEntry
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*netEntry); e.done {
				victim = e
				break
			}
		}
		if victim == nil {
			return // every entry is mid-build; shrink on the next Get
		}
		c.removeLocked(victim)
		c.stats.Evictions++
	}
}

// removeLocked unlinks an entry from the map and the LRU list.
func (c *NetCache) removeLocked(e *netEntry) {
	delete(c.byKey, e.key)
	c.lru.Remove(e.elem)
}
