package memo

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// value returns a build that yields v.
func value(v int) func() (int, error) { return func() (int, error) { return v, nil } }

// blocked starts a build of key on its own goroutine that waits for
// gate, and returns once the build is running. The returned channel
// yields the call's error.
func blocked(c *Cache[string, int], key string, v int, gate <-chan struct{}) <-chan error {
	running := make(chan struct{})
	out := make(chan error, 1)
	go func() {
		_, _, err := c.Get(context.Background(), key, func() (int, error) {
			close(running)
			<-gate
			return v, nil
		})
		out <- err
	}()
	<-running
	return out
}

// waitCalls spins until n calls have reached the cache, so a test knows
// a goroutine's Get has registered before it releases a build.
func waitCalls(c *Cache[string, int], n uint64) {
	for {
		c.mu.Lock()
		seq := c.seq
		c.mu.Unlock()
		if seq >= n {
			return
		}
		runtime.Gosched()
	}
}

func TestCache(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"singleflight under 32 goroutines", func(t *testing.T) {
			c := New[string, int](0, nil)
			var builds atomic.Int64
			gate := make(chan struct{})
			var ready, done sync.WaitGroup
			results := make([]Result, 32)
			for i := range results {
				ready.Add(1)
				done.Add(1)
				go func(i int) {
					defer done.Done()
					ready.Done()
					v, res, err := c.Get(ctx, "k", func() (int, error) {
						builds.Add(1)
						<-gate
						return 7, nil
					})
					if v != 7 || err != nil {
						t.Errorf("goroutine %d: Get = %d, %v", i, v, err)
					}
					results[i] = res
				}(i)
			}
			ready.Wait()
			close(gate)
			done.Wait()
			if n := builds.Load(); n != 1 {
				t.Errorf("builds = %d, want 1", n)
			}
			counts := map[Result]int{}
			for _, r := range results {
				counts[r]++
			}
			if counts[Built] != 1 || counts[Joined]+counts[Hit] != 31 {
				t.Errorf("results = %v, want 1 built and 31 joined or hit", counts)
			}
		}},
		{"results: built, hit, joined", func(t *testing.T) {
			c := New[string, int](0, nil)
			if _, res, _ := c.Get(ctx, "a", value(1)); res != Built {
				t.Errorf("first Get = %v, want Built", res)
			}
			if _, res, _ := c.Get(ctx, "a", value(2)); res != Hit {
				t.Errorf("second Get = %v, want Hit", res)
			}
			gate := make(chan struct{})
			first := blocked(c, "b", 3, gate)
			joined := make(chan Result, 1)
			go func() {
				_, res, _ := c.Get(ctx, "b", value(4))
				joined <- res
			}()
			waitCalls(c, 4)
			close(gate)
			if err := <-first; err != nil {
				t.Fatal(err)
			}
			if res := <-joined; res != Joined {
				t.Errorf("concurrent Get = %v, want Joined", res)
			}
		}},
		{"failed build not cached, error reaches joined waiters", func(t *testing.T) {
			c := New[string, int](0, nil)
			boom := errors.New("boom")
			gate := make(chan struct{})
			running := make(chan struct{})
			errs := make(chan error, 2)
			go func() {
				_, _, err := c.Get(ctx, "k", func() (int, error) {
					close(running)
					<-gate
					return 0, boom
				})
				errs <- err
			}()
			<-running
			go func() {
				_, _, err := c.Get(ctx, "k", value(1))
				errs <- err
			}()
			waitCalls(c, 2)
			close(gate)
			for i := 0; i < 2; i++ {
				if err := <-errs; err != boom {
					t.Errorf("caller %d: err = %v, want boom", i, err)
				}
			}
			if c.Has("k") {
				t.Error("failed build kept its slot")
			}
			if v, res, err := c.Get(ctx, "k", value(5)); err != nil || v != 5 {
				t.Errorf("Get after a failed build = %d, %v, %v; want a fresh build of 5", v, res, err)
			}
		}},
		{"canceled waiter returns, build goes on", func(t *testing.T) {
			c := New[string, int](0, nil)
			gate := make(chan struct{})
			builder := blocked(c, "k", 9, gate)
			cctx, cancel := context.WithCancel(ctx)
			cancel()
			if _, res, err := c.Get(cctx, "k", value(1)); !errors.Is(err, context.Canceled) || res != Joined {
				t.Errorf("canceled waiter: res %v, err %v; want Joined, context.Canceled", res, err)
			}
			if _, ok := c.Lookup("k"); ok {
				t.Error("Lookup answered for an in-flight build")
			}
			if !c.Has("k") {
				t.Error("Has is false for an in-flight build")
			}
			close(gate)
			if err := <-builder; err != nil {
				t.Fatal(err)
			}
			if v, ok := c.Lookup("k"); !ok || v != 9 {
				t.Errorf("Lookup after the build = %d, %v; want 9", v, ok)
			}
		}},
		{"LRU evicts the least recently used", func(t *testing.T) {
			var evicted []int
			c := New[string, int](2, func(v int) { evicted = append(evicted, v) })
			c.Get(ctx, "a", value(1))
			c.Get(ctx, "b", value(2))
			c.Lookup("a") // b is now the LRU entry
			c.Get(ctx, "c", value(3))
			if c.Has("b") || !c.Has("a") || !c.Has("c") || c.Len() != 2 {
				t.Errorf("after eviction: a %v b %v c %v len %d", c.Has("a"), c.Has("b"), c.Has("c"), c.Len())
			}
			if len(evicted) != 1 || evicted[0] != 2 {
				t.Errorf("onEvict saw %v, want [2]", evicted)
			}
		}},
		{"in-flight builds are never evicted", func(t *testing.T) {
			c := New[string, int](2, nil)
			gate := make(chan struct{})
			a := blocked(c, "a", 1, gate)
			b := blocked(c, "b", 2, gate)
			c.Get(ctx, "c", value(3)) // nothing finished to evict: overflow
			if c.Len() != 3 || !c.Has("a") || !c.Has("b") {
				t.Errorf("in-flight entry evicted: len %d", c.Len())
			}
			close(gate)
			<-a
			<-b
			c.Get(ctx, "d", value(4)) // now the finished LRU entries go
			if c.Len() != 2 || !c.Has("d") {
				t.Errorf("after builds finished: len %d", c.Len())
			}
		}},
		{"onEvict only after the last release", func(t *testing.T) {
			var evicted []int
			c := New[string, int](1, func(v int) { evicted = append(evicted, v) })
			v, release1, err := c.Acquire(ctx, "a", value(1))
			if err != nil || v != 1 {
				t.Fatalf("Acquire = %d, %v", v, err)
			}
			_, release2, _ := c.Acquire(ctx, "a", value(0))
			c.Get(ctx, "b", value(2)) // evicts a, still pinned twice
			if c.Has("a") || len(evicted) != 0 {
				t.Fatalf("a resident %v, evicted %v; want evicted from the map, not yet freed", c.Has("a"), evicted)
			}
			release1()
			if len(evicted) != 0 {
				t.Fatalf("onEvict ran with a pin outstanding: %v", evicted)
			}
			release2()
			if len(evicted) != 1 || evicted[0] != 1 {
				t.Errorf("onEvict saw %v, want [1]", evicted)
			}
		}},
		{"Lookup does not allocate", func(t *testing.T) {
			// The service's offsets hot path runs a Lookup per request.
			c := New[string, int](0, nil)
			c.Get(ctx, "k", value(1))
			if n := testing.AllocsPerRun(100, func() { c.Lookup("k") }); n != 0 {
				t.Errorf("Lookup allocates %v times per call", n)
			}
		}},
		{"unpinned eviction frees at once", func(t *testing.T) {
			var evicted []int
			c := New[string, int](1, func(v int) { evicted = append(evicted, v) })
			_, release, _ := c.Acquire(ctx, "a", value(1))
			release()
			c.Get(ctx, "b", value(2))
			if len(evicted) != 1 || evicted[0] != 1 {
				t.Errorf("onEvict saw %v, want [1]", evicted)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}
