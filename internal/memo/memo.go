// Package memo is the one singleflight + LRU memo: the evaluation
// harness keeps parsed programs and generated traces in it, the layout
// service its compiled layouts.
//
// A Cache builds each key at most once however many callers race on it,
// on the first caller's goroutine, and never abandons a build: a waiter
// whose context ends stops waiting, the build goes on. A failed build
// takes no slot; its error still reaches every caller that joined it.
// Finished values live in an LRU, bounded by entry count or by a weight
// such as bytes, that never evicts an in-flight build. An evicted value
// leaves the cache only: a caller still reading it keeps it alive.
package memo

import (
	"context"
	"sync"
)

// Result says how one call obtained its value.
type Result uint8

const (
	Built  Result = iota // this call ran the build
	Joined               // this call waited for another call's build
	Hit                  // the value was already built
)

// entry is one key's slot. val, err, weight and finished are written
// under the cache lock before done closes; lastUse is the recency clock
// at the key's latest use; weight is what the entry counts against the
// cache's bound.
type entry[V any] struct {
	done     chan struct{}
	val      V
	err      error
	lastUse  uint64
	weight   int
	finished bool
}

// Cache is a singleflight + LRU memo from K to V, safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*entry[V]
	seq     uint64 // recency clock
	max     int
	total   int // summed weight of the resident entries
	weigh   func(V) int
	onEvict func(V)
}

// New returns a cache whose resident entries weigh at most max in all
// (max ≤ 0: unbounded). weigh gives a built value's weight; nil weighs
// every entry 1, in flight or not, so max is an entry count. With a
// weigh function an in-flight build weighs 0 until it finishes, and a
// finished build evicts least recently used entries until the total fits
// again. In-flight builds and the build that just finished are never
// evicted; when nothing else is left the cache overflows instead.
// onEvict, if non-nil, gets every evicted value once, on the goroutine
// that evicted it.
func New[K comparable, V any](max int, weigh func(V) int, onEvict func(V)) *Cache[K, V] {
	if onEvict == nil {
		onEvict = func(V) {}
	}
	return &Cache[K, V]{entries: map[K]*entry[V]{}, max: max, weigh: weigh, onEvict: onEvict}
}

// Get returns the value for key, running build on a miss, and whether
// this call built, joined or hit. If ctx ends before a joined build
// finishes, Get returns ctx.Err().
func (c *Cache[K, V]) Get(ctx context.Context, key K, build func() (V, error)) (v V, res Result, err error) {
	c.mu.Lock()
	c.seq++
	e, ok := c.entries[key]
	res = Hit
	var freed []V
	switch {
	case !ok:
		res = Built
		e = &entry[V]{done: make(chan struct{})}
		if c.weigh == nil {
			e.weight = 1
		}
		freed = c.evictLocked(e.weight, nil)
		c.entries[key] = e
		c.total += e.weight
	case !e.finished:
		res = Joined
	}
	e.lastUse = c.seq
	c.mu.Unlock()
	c.free(freed)

	switch res {
	case Built:
		val, err := build()
		c.mu.Lock()
		e.val, e.err, e.finished = val, err, true
		var evicted []V
		switch {
		case err != nil:
			delete(c.entries, key)
			c.total -= e.weight
		case c.weigh != nil:
			e.weight = c.weigh(val)
			c.total += e.weight
			evicted = c.evictLocked(0, e)
		}
		c.mu.Unlock()
		close(e.done)
		c.free(evicted)
	case Joined:
		select {
		case <-e.done:
		case <-ctx.Done():
			return v, res, ctx.Err()
		}
	}
	if e.err != nil {
		return v, res, e.err
	}
	return e.val, res, nil
}

// evictLocked drops least recently used finished entries other than keep
// until need more weight fits, and returns their values, which the
// caller holding c.mu hands to free after unlocking.
func (c *Cache[K, V]) evictLocked(need int, keep *entry[V]) (freed []V) {
	for c.max > 0 && c.total+need > c.max {
		var victim K
		var ve *entry[V]
		for k, e := range c.entries {
			if e.finished && e != keep && (ve == nil || e.lastUse < ve.lastUse) {
				victim, ve = k, e
			}
		}
		if ve == nil {
			return freed
		}
		delete(c.entries, victim)
		c.total -= ve.weight
		freed = append(freed, ve.val)
	}
	return freed
}

// free hands evicted values to onEvict.
func (c *Cache[K, V]) free(vals []V) {
	for _, v := range vals {
		c.onEvict(v)
	}
}

// Lookup returns the finished value for key without building, and
// refreshes its recency. An in-flight build answers false, so a hot
// path never blocks on one.
func (c *Cache[K, V]) Lookup(key K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || !e.finished {
		return v, false
	}
	c.seq++
	e.lastUse = c.seq
	return e.val, true
}

// Has reports whether key is resident, finished or in flight.
func (c *Cache[K, V]) Has(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Len returns the number of resident entries, in-flight builds included.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
