package cache

import "sync"

// Stats counts a cache's traffic. All fields are cumulative since
// construction; read a consistent snapshot with LRU.Stats.
type Stats struct {
	// Lookups counts Get/GetOrCompute calls; Hits the subset served
	// from the cache.
	Lookups int64 `json:"lookups"`
	// Hits counts lookups served without running a loader.
	Hits int64 `json:"hits"`
	// Misses counts lookups that ran (or required) a fresh compute.
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped to respect the bound.
	Evictions int64 `json:"evictions"`
}

// HitRate returns Hits/Lookups, or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// node is one LRU entry on the intrusive recency list (head = most
// recently used).
type node[K comparable, V any] struct {
	key        K
	val        V
	weight     int
	prev, next *node[K, V]
}

// LRU is a bounded least-recently-used cache. Every entry has a
// weight — 1 unless the cache was built with NewWeightedLRU — and the
// bound caps the total weight held, so a plain LRU bounds its entry
// count and a weighted one, say, its bytes. A bound of 0 means
// unbounded — a plain memo map with stats, the sweep memoizer's mode.
// All methods are safe for concurrent use.
type LRU[K comparable, V any] struct {
	mu         sync.Mutex
	bound      int
	weigh      func(V) int
	used       int // total weight of the cached entries
	m          map[K]*node[K, V]
	head, tail *node[K, V]
	stats      Stats
}

// NewLRU returns an empty cache holding at most bound entries
// (bound <= 0 = unbounded).
func NewLRU[K comparable, V any](bound int) *LRU[K, V] {
	return NewWeightedLRU[K, V](bound, func(V) int { return 1 })
}

// NewWeightedLRU returns an empty cache whose entries' weights, as
// weigh reports them, total at most bound (bound <= 0 = unbounded).
// Inserting evicts least recently used entries until the total fits,
// so an entry heavier than the whole bound evicts everything and then
// itself: it is never cached.
func NewWeightedLRU[K comparable, V any](bound int, weigh func(V) int) *LRU[K, V] {
	if bound < 0 {
		bound = 0
	}
	return &LRU[K, V]{bound: bound, weigh: weigh, m: make(map[K]*node[K, V])}
}

// unlink removes n from the recency list.
func (c *LRU[K, V]) unlink(n *node[K, V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// pushFront makes n the most recently used entry.
func (c *LRU[K, V]) pushFront(n *node[K, V]) {
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

// touch moves an existing entry to the front.
func (c *LRU[K, V]) touch(n *node[K, V]) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

// insert adds a new entry at the front, or replaces an existing one's
// value and moves it there, then evicts to the bound. Caller holds
// c.mu.
func (c *LRU[K, V]) insert(k K, v V) {
	w := c.weigh(v)
	if n, ok := c.m[k]; ok {
		c.used += w - n.weight
		n.val, n.weight = v, w
		c.touch(n)
	} else {
		n := &node[K, V]{key: k, val: v, weight: w}
		c.m[k] = n
		c.pushFront(n)
		c.used += w
	}
	for c.bound > 0 && c.used > c.bound {
		victim := c.tail
		c.unlink(victim)
		delete(c.m, victim.key)
		c.used -= victim.weight
		c.stats.Evictions++
	}
}

// Get returns the cached value for k, marking it most recently used.
func (c *LRU[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Lookups++
	n, ok := c.m[k]
	if !ok {
		c.stats.Misses++
		var zero V
		return zero, false
	}
	c.stats.Hits++
	c.touch(n)
	return n.val, true
}

// peek is Get without counting a lookup: the re-check Loading makes
// after a miss that Get already counted.
func (c *LRU[K, V]) peek(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.touch(n)
	return n.val, true
}

// Put stores v under k (replacing any existing value), marking it most
// recently used.
func (c *LRU[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert(k, v)
}

// GetOrCompute returns the cached value for k, running load under the
// cache lock on a miss. Holding the lock during the load serializes
// distinct computes but guarantees each distinct key is computed
// exactly once however many goroutines race for it — the memoizer
// contract internal/sweep relies on for deterministic solve counts.
// For long computes where concurrent distinct keys must proceed in
// parallel, use Loading instead. The second result reports whether
// load ran.
func (c *LRU[K, V]) GetOrCompute(k K, load func() V) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Lookups++
	if n, ok := c.m[k]; ok {
		c.stats.Hits++
		c.touch(n)
		return n.val, false
	}
	c.stats.Misses++
	v := load()
	c.insert(k, v)
	return v, true
}

// Entry is one key/value pair of a cache snapshot.
type Entry[K comparable, V any] struct {
	// Key is the cache key.
	Key K `json:"key"`
	// Val is the cached value.
	Val V `json:"val"`
}

// Dump returns a snapshot of the cache contents in recency order, most
// recently used first. Dumping does not touch recency or stats. The
// snapshot is a copy; mutating it does not affect the cache.
func (c *LRU[K, V]) Dump() []Entry[K, V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry[K, V], 0, len(c.m))
	for n := c.head; n != nil; n = n.next {
		out = append(out, Entry[K, V]{Key: n.key, Val: n.val})
	}
	return out
}

// Seed inserts a Dump-format snapshot, oldest entry first, so a dump
// restored into an equally-bounded cache reproduces the original
// recency order (and, when the snapshot exceeds the bound, keeps the
// most recently used entries). Existing keys are overwritten. Seeding
// counts toward Evictions when the bound trims it, but not toward
// lookup stats.
func (c *LRU[K, V]) Seed(entries []Entry[K, V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(entries) - 1; i >= 0; i-- {
		c.insert(entries[i].Key, entries[i].Val)
	}
}

// Len returns the number of cached entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Clear drops every entry. It counts neither as lookups nor as
// evictions: the caller, not the bound, chose to empty the cache.
func (c *LRU[K, V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.m)
	c.head, c.tail, c.used = nil, nil, 0
}

// Stats returns a consistent snapshot of the cache's counters.
func (c *LRU[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
