package serve

import (
	"container/list"
	"math"
	"slices"
	"sync"

	"repro/internal/tensor"
)

// LRU is a concurrency-safe least-recently-used map with a fixed capacity.
// It is the one cache implementation of the request path: the replica's
// route cache and the gateway's session cache each wrap it with only their
// own key and version rule. Capacity <= 0 disables it (every Get misses,
// Put is a no-op).
type LRU[K comparable, V any] struct {
	mu  sync.Mutex
	cap int
	m   map[K]*list.Element
	l   *list.List // front = most recently used
}

type lruEntry[K comparable, V any] struct {
	k K
	v V
}

// NewLRU builds a cache holding up to capacity entries.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	return &LRU[K, V]{cap: capacity, m: make(map[K]*list.Element), l: list.New()}
}

// Enabled reports whether the cache stores anything at all (capacity > 0).
func (c *LRU[K, V]) Enabled() bool { return c.cap > 0 }

// Get returns the value stored under k and marks it most recently used.
func (c *LRU[K, V]) Get(k K) (V, bool) {
	var zero V
	if c.cap <= 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		return zero, false
	}
	c.l.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).v, true
}

// Put stores v under k, overwriting any value already there, and evicts
// the least recently used entry when full.
func (c *LRU[K, V]) Put(k K, v V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		el.Value.(*lruEntry[K, V]).v = v
		c.l.MoveToFront(el)
		return
	}
	for c.l.Len() >= c.cap {
		oldest := c.l.Back()
		c.l.Remove(oldest)
		delete(c.m, oldest.Value.(*lruEntry[K, V]).k)
	}
	c.m[k] = c.l.PushFront(&lruEntry[K, V]{k: k, v: v})
}

// Remove deletes k's entry, if any.
func (c *LRU[K, V]) Remove(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		c.l.Remove(el)
		delete(c.m, k)
	}
}

// Len returns the number of cached entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.l.Len()
}

// routeCache maps a request input to its routing decision. It exists to
// keep the hot path off the embedding network: a repeated input skips the
// encoder forward pass and the memory scan entirely. Entries carry the
// snapshot version they were computed against and are ignored (then
// overwritten) after a hot swap, so a stale cache can never route into a
// retired snapshot.
//
// Keys are HashInput digests; the full input is kept in the entry and
// compared on lookup, so hash collisions degrade to misses, never to wrong
// answers.
type routeCache struct {
	lru *LRU[uint64, routeEntry]
}

type routeEntry struct {
	x       tensor.Vector // cloned input (collision guard)
	expert  int           // index into Snapshot.Experts()
	matched bool
	version int // snapshot version the decision belongs to
}

// newRouteCache builds a cache holding up to capacity decisions;
// capacity <= 0 disables caching (every lookup misses).
func newRouteCache(capacity int) routeCache {
	return routeCache{NewLRU[uint64, routeEntry](capacity)}
}

// HashInput is FNV-1a 64 over the little-endian float64 bit patterns of x:
// the route cache's key and the gateway's ring key.
func HashInput(x tensor.Vector) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range x {
		b := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h ^= b & 0xff
			h *= prime
			b >>= 8
		}
	}
	return h
}

// get returns the cached decision for x under the given snapshot version.
func (c routeCache) get(x tensor.Vector, version int) (expert int, matched, ok bool) {
	if !c.lru.Enabled() {
		return 0, false, false
	}
	e, ok := c.lru.Get(HashInput(x))
	if !ok || e.version != version || !slices.Equal(e.x, x) {
		// NaN-bearing inputs compare unequal and degrade to misses, which
		// is safe.
		return 0, false, false
	}
	return e.expert, e.matched, true
}

// put records a routing decision. A same-key entry is overwritten (this is
// how post-swap entries replace stale ones).
func (c routeCache) put(x tensor.Vector, version, expert int, matched bool) {
	if !c.lru.Enabled() {
		return
	}
	c.lru.Put(HashInput(x), routeEntry{x: x.Clone(), expert: expert, matched: matched, version: version})
}
