// Package memo is the one singleflight + LRU memo: the evaluation
// harness keeps parsed programs and generated traces in it, the layout
// service its compiled layouts.
//
// A Cache builds each key at most once however many callers race on it,
// on the first caller's goroutine, and never abandons a build: a waiter
// whose context ends stops waiting, the build goes on. A failed build
// takes no slot; its error still reaches every caller that joined it.
// Finished values live in an LRU that never evicts an in-flight build.
// Acquire pins a value, and the onEvict hook sees an evicted value only
// once no pin remains — which lets the harness recycle trace buffers
// without pulling them from under a running simulation.
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

// entry is one key's slot. val, err and finished are written under the
// cache lock before done closes; lastUse is the recency clock at the
// key's latest use; refs counts Acquire pins; evicted marks an entry
// dropped from the map whose onEvict call waits for the last release.
type entry[V any] struct {
	done     chan struct{}
	val      V
	err      error
	lastUse  uint64
	finished bool
	refs     int
	evicted  bool
}

// Cache is a singleflight + LRU memo from K to V, safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*entry[V]
	seq     uint64 // recency clock
	max     int
	onEvict func(V)
}

// New returns a cache of at most max entries (max ≤ 0: unbounded); when
// every entry is in flight it overflows instead. onEvict, if non-nil,
// gets every evicted value once, at eviction or at the last release of
// a pin, whichever is later, on the goroutine that evicted or released.
func New[K comparable, V any](max int, onEvict func(V)) *Cache[K, V] {
	if onEvict == nil {
		onEvict = func(V) {}
	}
	return &Cache[K, V]{entries: map[K]*entry[V]{}, max: max, onEvict: onEvict}
}

// Get returns the value for key, running build on a miss, and whether
// this call built, joined or hit. If ctx ends before a joined build
// finishes, Get returns ctx.Err().
func (c *Cache[K, V]) Get(ctx context.Context, key K, build func() (V, error)) (v V, res Result, err error) {
	e, res, err := c.get(ctx, key, build, false)
	if err != nil {
		return v, res, err
	}
	return e.val, res, nil
}

// Acquire is Get with a pin: onEvict does not see the value before
// release, which must be called once when the value is no longer read
// (on error there is nothing to release).
func (c *Cache[K, V]) Acquire(ctx context.Context, key K, build func() (V, error)) (v V, release func(), err error) {
	e, _, err := c.get(ctx, key, build, true)
	if err != nil {
		return v, nil, err
	}
	return e.val, func() { c.release(e) }, nil
}

func (c *Cache[K, V]) get(ctx context.Context, key K, build func() (V, error), pin bool) (*entry[V], Result, error) {
	c.mu.Lock()
	c.seq++
	e, ok := c.entries[key]
	res := Hit
	var freed []V
	switch {
	case !ok:
		res = Built
		e = &entry[V]{done: make(chan struct{})}
		freed = c.evictLocked()
		c.entries[key] = e
	case !e.finished:
		res = Joined
	}
	e.lastUse = c.seq
	if pin {
		e.refs++
	}
	c.mu.Unlock()
	for _, v := range freed {
		c.onEvict(v)
	}

	switch res {
	case Built:
		v, err := build()
		c.mu.Lock()
		e.val, e.err, e.finished = v, err, true
		if err != nil && c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
		close(e.done)
	case Joined:
		select {
		case <-e.done:
		case <-ctx.Done():
			if pin {
				c.release(e)
			}
			return nil, res, ctx.Err()
		}
	}
	if e.err != nil {
		if pin {
			c.release(e)
		}
		return nil, res, e.err
	}
	return e, res, nil
}

// release drops one pin; the last one frees an evicted value.
func (c *Cache[K, V]) release(e *entry[V]) {
	c.mu.Lock()
	e.refs--
	free := e.refs == 0 && e.evicted
	c.mu.Unlock()
	if free {
		c.onEvict(e.val)
	}
}

// evictLocked drops least recently used finished entries until one more
// fits, and returns the unpinned victims' values, which the caller holding
// c.mu hands to onEvict after unlocking.
func (c *Cache[K, V]) evictLocked() (freed []V) {
	for c.max > 0 && len(c.entries) >= c.max {
		var victim K
		var ve *entry[V]
		for k, e := range c.entries {
			if e.finished && (ve == nil || e.lastUse < ve.lastUse) {
				victim, ve = k, e
			}
		}
		if ve == nil {
			return freed
		}
		delete(c.entries, victim)
		ve.evicted = true
		if ve.refs == 0 {
			freed = append(freed, ve.val)
		}
	}
	return freed
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
