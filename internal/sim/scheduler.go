package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"flopt/internal/obs"
	"flopt/internal/storage/cache"
	"flopt/internal/trace"
)

// runHeap is a concrete binary min-heap over the active threads, ordered
// by (virtual time, thread id). It replaces container/heap on the
// scheduler hot path: each element packs that pair into a single int64 —
// time in the high bits, id in the low idBits — so the strict total order
// becomes one integer comparison, with no interface dispatch and no
// indirection through the clock slice. Any valid heap under a strict total
// order yields the same root sequence, so scheduling is bit-identical to
// the previous container/heap implementation.
type runHeap struct {
	keys []int64
}

func (h *runHeap) down(i int) {
	n := len(h.keys)
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if r := j + 1; r < n && h.keys[r] < h.keys[j] {
			j = r
		}
		if h.keys[j] >= h.keys[i] {
			return
		}
		h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
		i = j
	}
}

func (h *runHeap) init() {
	for i := len(h.keys)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// fix restores the heap after the root's key increased (times only move
// forward, so sifting down is sufficient).
func (h *runHeap) fix() { h.down(0) }

func (h *runHeap) pop() {
	n := len(h.keys) - 1
	h.keys[0] = h.keys[n]
	h.keys = h.keys[:n]
	h.down(0)
}

// limit returns the packed (time, id) bound the root thread must stay
// within to keep its heap position: the smaller of its up-to-two children.
// With no children the bound is unreachable and the root runs its stream
// to completion.
func (h *runHeap) limit() int64 {
	lim := int64(math.MaxInt64)
	if len(h.keys) > 1 {
		lim = h.keys[1]
		if len(h.keys) > 2 && h.keys[2] < lim {
			lim = h.keys[2]
		}
	}
	return lim
}

// Run executes the given nest traces in program order with a barrier
// between nests and returns the report. The machine's caches keep their
// contents across nests (and across Run calls; use Reset for a cold
// start). Internal clocks run in nanoseconds; the report converts to
// microseconds.
func (m *Machine) Run(traces []*trace.NestTrace) (*Report, error) {
	return m.RunContext(context.Background(), traces)
}

// Eviction-storm detection: every evictionSampleEvery accesses the run
// loop samples the hierarchy-wide eviction count; a window in which most
// accesses evicted a block (≥ the threshold) emits an EvEvictionStorm
// event — the thrashing signature of a working set far beyond capacity.
const (
	evictionSampleEvery    = 4096
	evictionStormThreshold = 3 * evictionSampleEvery / 4
)

// ctxCheckEvery paces context-cancellation polling in the inner loop (a
// power of two; the check is a mask test plus one predictable call). A
// cancellation observed on the k-th poll therefore aborts the run after
// at most k·ctxCheckEvery served accesses, however long the trace.
const ctxCheckEvery = 8192

// RunContext is Run with cooperative cancellation: the inner loop polls
// ctx every ctxCheckEvery accesses and aborts with ctx's error, leaving
// the machine's caches and clocks mid-run (Reset before reuse).
func (m *Machine) RunContext(ctx context.Context, traces []*trace.NestTrace) (*Report, error) {
	threads := m.cfg.Threads()
	clock := make([]int64, threads) // ns
	// pos and the heap's id slice are reused across nests (hot-path
	// allocation trim: one allocation each per Run, not per nest). pos[t]
	// indexes thread t's next stream entry.
	pos := make([]int, threads)
	keys := make([]int64, 0, threads)
	var accesses int64

	// Heap keys pack (clock, thread) into one int64: clock in the high
	// bits, the thread id in the low idBits. The packing is order-preserving
	// while clocks stay below maxClock (2^57 ns ≈ 4.5 virtual years at 16
	// threads); the scheduler errors out rather than let a key wrap.
	idBits := uint(bits.Len(uint(threads)))
	idMask := int64(1)<<idBits - 1
	maxClock := int64(1) << (62 - idBits)

	if m.obsOn {
		m.obs.Event(obs.Event{Kind: obs.EvRunStart, Node: -1, Thread: -1, File: -1,
			Detail: fmt.Sprintf("nests=%d threads=%d policy=%s", len(traces), threads, m.mgr.Name())})
	}
	for ni, nt := range traces {
		if len(nt.Streams) != threads {
			return nil, fmt.Errorf("sim: nest %d trace has %d streams, platform has %d threads",
				ni, len(nt.Streams), threads)
		}
		// Barrier: all threads start the nest at the same time.
		var barrier int64
		for _, c := range clock {
			if c > barrier {
				barrier = c
			}
		}
		if m.obsOn {
			m.obs.Event(obs.Event{TimeUS: barrier / 1000, Kind: obs.EvNestStart,
				Node: -1, Thread: -1, File: -1, Detail: fmt.Sprintf("nest=%d", ni)})
		}
		if barrier >= maxClock {
			return nil, fmt.Errorf("sim: virtual clock %d ns overflows the scheduler key space", barrier)
		}
		h := runHeap{keys: keys[:0]}
		for t := 0; t < threads; t++ {
			clock[t] = barrier
			pos[t] = 0
			if len(nt.Streams[t]) > 0 {
				h.keys = append(h.keys, barrier<<idBits|int64(t))
			}
		}
		h.init()
		// Scheduler with root batching: the root thread keeps serving
		// entries for as long as its packed key stays at or below the smaller of its heap children,
		// which is exactly the condition under which a per-block heap fix
		// would have left it at the root. Interleaving, stats and clocks are
		// therefore identical to serving one block per heap operation.
		for len(h.keys) > 0 {
			t := int(h.keys[0] & idMask)
			lim := h.limit()
			stream := nt.Streams[t]
			p := pos[t]
			c := clock[t]
			for {
				a := stream[p]
				c += m.serve(c, t, int32(a.File), int64(a.Block), a.Elems)
				accesses++
				if accesses&(ctxCheckEvery-1) == 0 {
					if err := ctx.Err(); err != nil {
						return nil, fmt.Errorf("sim: run aborted after %d accesses: %w", accesses, err)
					}
				}
				if m.obsOn && accesses&(evictionSampleEvery-1) == 0 {
					m.sampleEvictions(c)
				}
				p++
				if p >= len(stream) {
					if c >= maxClock {
						return nil, fmt.Errorf("sim: virtual clock %d ns overflows the scheduler key space", c)
					}
					clock[t], pos[t] = c, p
					h.pop()
					break
				}
				if key := c<<idBits | int64(t); key > lim {
					if c >= maxClock {
						return nil, fmt.Errorf("sim: virtual clock %d ns overflows the scheduler key space", c)
					}
					clock[t], pos[t] = c, p
					h.keys[0] = key
					h.fix()
					break
				}
			}
		}
	}
	return m.buildReport(clock, accesses), nil
}

// sampleEvictions runs the eviction-storm detector at virtual time nowNS.
func (m *Machine) sampleEvictions(nowNS int64) {
	ev := m.mgr.IOStats().Evictions + m.mgr.StorageStats().Evictions
	if d := ev - m.lastEvictions; d >= evictionStormThreshold {
		m.obs.Event(obs.Event{TimeUS: nowNS / 1000, Kind: obs.EvEvictionStorm,
			Node: -1, Thread: -1, File: -1,
			Detail: fmt.Sprintf("evictions=%d window=%d", d, evictionSampleEvery)})
	}
	m.lastEvictions = ev
}

// buildReport assembles the end-of-run report from the machine state and
// the final thread clocks (ns), emits the run-end event and snapshots
// metrics.
func (m *Machine) buildReport(clock []int64, accesses int64) *Report {
	threadUS := make([]int64, len(clock))
	for t, c := range clock {
		threadUS[t] = c / 1000
	}
	rep := &Report{
		Config:       m.cfg,
		ThreadTimeUS: threadUS,
		IO:           m.mgr.IOStats(),
		Storage:      m.mgr.StorageStats(),
		Accesses:     accesses,
		PolicyName:   m.mgr.Name(),
	}
	for _, c := range threadUS {
		if c > rep.ExecTimeUS {
			rep.ExecTimeUS = c
		}
	}
	for _, d := range m.disks {
		rep.DiskReads += d.Reads()
		rep.DiskSeqReads += d.SeqReads()
		rep.DiskBusyUS += d.BusyNS() / 1000
	}
	if dl, ok := m.mgr.(*cache.DemoteLRU); ok {
		rep.Demotions = dl.Demotions()
	}
	rep.Prefetches = m.prefetches
	rep.Retries, rep.Timeouts = m.retries, m.timeouts
	rep.DegradedReads, rep.FailedOverBlocks = m.degradedReads, m.failedOver
	if m.obsOn {
		m.obs.Event(obs.Event{TimeUS: rep.ExecTimeUS, Kind: obs.EvRunEnd,
			Node: -1, Thread: -1, File: -1,
			Detail: fmt.Sprintf("accesses=%d disk_reads=%d", accesses, rep.DiskReads)})
	}
	if m.metrics != nil {
		m.finishMetrics(rep)
	}
	return rep
}
