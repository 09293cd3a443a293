package cache

import "sync"

// Keyed is a small concurrency-safe memo table keyed by any comparable
// type. The timing analysis uses it for solver-side memoization: mapping a
// canonical constraint-set key to the job that first produced it (set
// dedup), and holding per-direction warm-start state across repeated
// Estimate calls on one analyzer.
//
// The zero value is not ready; construct with NewKeyed.
type Keyed[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
}

// NewKeyed returns an empty cache.
func NewKeyed[K comparable, V any]() *Keyed[K, V] {
	return &Keyed[K, V]{m: map[K]V{}}
}

// Get returns the cached value for key, if present.
func (c *Keyed[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

// Put stores value under key, overwriting any previous entry.
func (c *Keyed[K, V]) Put(key K, value V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = value
}

// GetOrCompute returns the cached value for key, computing and caching it
// on a miss. The computation runs under the cache lock, so it is executed
// at most once per key; keep it cheap or tolerate the serialization.
func (c *Keyed[K, V]) GetOrCompute(key K, compute func() V) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.m[key]; ok {
		return v, true
	}
	v := compute()
	c.m[key] = v
	return v, false
}

// Len returns the number of cached entries.
func (c *Keyed[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Clear drops every entry (annotation changes invalidate memoized solver
// state).
func (c *Keyed[K, V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.m)
}
