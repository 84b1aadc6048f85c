// Package cache provides the byte-budgeted LRU behind two users: the
// paper's per-node software caches (§III-B), which internal/sim builds per
// simulated node (a seed-index cache and a target cache, see sim.Group), and
// the snapshot catalog's resident-index budget (internal/catalog).
//
// It also provides the analytic seed-reuse model behind Fig 7: with f
// occurrences of a seed spread uniformly over m nodes, the probability that
// a node sees the seed at least twice (and therefore can hit its own cache)
// is 1 - (1 - 1/m)^(f-1) — the balls-into-bins argument of §III-B.
package cache

import (
	"container/list"
	"math"
	"math/rand"
	"sync"
)

// LRU is a byte-budgeted least-recently-used cache, safe for concurrent use.
type LRU[K comparable, V any] struct {
	mu   sync.Mutex
	cap  int64
	used int64
	ll   *list.List // front = most recent
	m    map[K]*list.Element

	hits, misses, evictions int64
}

type lruEntry[K comparable, V any] struct {
	key   K
	value V
	size  int64
}

// NewLRU returns a cache holding at most capBytes of entry payload.
// capBytes <= 0 yields an always-miss cache (the "no cache" ablation).
func NewLRU[K comparable, V any](capBytes int64) *LRU[K, V] {
	return &LRU[K, V]{cap: capBytes, ll: list.New(), m: make(map[K]*list.Element)}
}

// Get returns the cached value and whether it was present, updating recency
// and the hit/miss counters.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*lruEntry[K, V]).value, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Contains reports presence without recency update or counter change.
func (c *LRU[K, V]) Contains(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[key]
	return ok
}

// Evicted is one entry pushed out of the cache by a Put: returned to the
// caller (rather than delivered via callback) so owners of refcounted
// values can finish releasing them outside every cache and caller lock.
type Evicted[K comparable, V any] struct {
	Key   K
	Value V
}

// Put inserts or refreshes an entry of the given payload size, evicting
// least-recently-used entries until it fits. Entries larger than the whole
// budget are not cached (stored == false). The evicted entries — never
// including the one just stored — are returned so the caller can dispose
// of their values; refreshing an existing key replaces its value without
// reporting the old one (the caller initiated the replacement and already
// holds both values).
func (c *LRU[K, V]) Put(key K, value V, size int64) (stored bool, evicted []Evicted[K, V]) {
	if size > c.cap || size < 0 {
		return false, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		ent := el.Value.(*lruEntry[K, V])
		c.used += size - ent.size
		ent.value, ent.size = value, size
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&lruEntry[K, V]{key: key, value: value, size: size})
		c.m[key] = el
		c.used += size
	}
	for c.used > c.cap {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*lruEntry[K, V])
		c.ll.Remove(back)
		delete(c.m, ent.key)
		c.used -= ent.size
		c.evictions++
		evicted = append(evicted, Evicted[K, V]{Key: ent.key, Value: ent.value})
	}
	return true, evicted
}

// Remove drops an entry without counting it as an eviction (the caller is
// retiring the value deliberately — e.g. a catalog hot-swap replacing a
// stale index). It reports whether the key was present and returns the
// removed value for disposal.
func (c *LRU[K, V]) Remove(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	ent := el.Value.(*lruEntry[K, V])
	c.ll.Remove(el)
	delete(c.m, key)
	c.used -= ent.size
	return ent.value, true
}

// Len returns the number of cached entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// UsedBytes returns the sum of cached entry sizes.
func (c *LRU[K, V]) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// CapBytes returns the configured byte budget.
func (c *LRU[K, V]) CapBytes() int64 { return c.cap }

// CounterSnapshot is a point-in-time view of cache effectiveness.
type CounterSnapshot struct{ Hits, Misses, Evictions int64 }

// Counters returns the accumulated hit/miss/eviction counts.
func (c *LRU[K, V]) Counters() CounterSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CounterSnapshot{Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}

// HitRate returns hits/(hits+misses), 0 when unused.
func (s CounterSnapshot) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// ReuseProbability is Fig 7's analytic curve: the probability that at least
// one of the other f-1 occurrences of a seed lands on the same node, with
// reads assigned uniformly at random to m = cores/ppn nodes.
func ReuseProbability(f float64, cores, ppn int) float64 {
	if f <= 1 {
		return 0
	}
	m := float64(cores) / float64(ppn)
	if m <= 1 {
		return 1
	}
	return 1 - math.Pow(1-1/m, f-1)
}

// SimulateReuse estimates the same probability by Monte Carlo: it tosses
// f-1 balls into m bins 'trials' times and reports the fraction of trials in
// which bin 0 received at least one ball. Validates the closed form.
func SimulateReuse(rng *rand.Rand, f, cores, ppn, trials int) float64 {
	m := cores / ppn
	if m <= 1 {
		return 1
	}
	hit := 0
	for t := 0; t < trials; t++ {
		for b := 0; b < f-1; b++ {
			if rng.Intn(m) == 0 {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(trials)
}
