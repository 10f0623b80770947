// Package trace turns a parallelized program plus a set of file layouts
// into per-thread block-access streams — the input of the storage
// simulator. Consecutive accesses by one thread to the same block are
// coalesced (one cache/network transaction moves a whole block).
package trace

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"flopt/internal/layout"
	"flopt/internal/linalg"
	"flopt/internal/parallel"
	"flopt/internal/poly"
)

// Access is one block-granular read/write request. Elems counts how many
// element touches were coalesced into it — the simulator charges
// element-proportional compute cost from it, keeping CPU time independent
// of the file layout.
//
// Run compresses a maximal sequence of consecutive-block requests with
// uniform Elems: the entry stands for the Run+1 blocks Block, Block+1, …,
// Block+Run, each touched Elems times, in increasing order. Run = 0 (the
// zero value) is a plain single-block request, so uncompressed streams
// remain valid. ExpandStream recovers the one-entry-per-block form.
type Access struct {
	File  int32
	Block int64
	Elems int32
	Run   int32
}

// FileTable assigns stable small integer ids to the program's arrays (one
// file per array, as in the paper) and records their layouts.
type FileTable struct {
	Names   []string
	Layouts []layout.Layout
	index   map[string]int32
}

// NewFileTable builds the table for program p with the given layouts
// (keyed by array name; every array needs one).
func NewFileTable(p *poly.Program, layouts map[string]layout.Layout) (*FileTable, error) {
	ft := &FileTable{index: make(map[string]int32, len(p.Arrays))}
	names := make([]string, 0, len(p.Arrays))
	for _, a := range p.Arrays {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		l, ok := layouts[n]
		if !ok {
			return nil, fmt.Errorf("trace: no layout for array %s", n)
		}
		ft.index[n] = int32(len(ft.Names))
		ft.Names = append(ft.Names, n)
		ft.Layouts = append(ft.Layouts, l)
	}
	return ft, nil
}

// ID returns the file id of an array name; it panics on unknown names.
func (ft *FileTable) ID(name string) int32 {
	id, ok := ft.index[name]
	if !ok {
		panic(fmt.Sprintf("trace: unknown array %q", name))
	}
	return id
}

// Blocks returns the file length in blocks for file id under blockElems.
func (ft *FileTable) Blocks(id int32, blockElems int64) int64 {
	return (ft.Layouts[id].SizeElems() + blockElems - 1) / blockElems
}

// NestTrace holds the per-thread access streams of one loop nest. Threads
// with no work have empty streams.
type NestTrace struct {
	Streams [][]Access
}

// TotalAccesses counts the block transactions across all streams, i.e.
// the run-expanded length: a compressed entry contributes Run+1.
func (nt *NestTrace) TotalAccesses() int64 {
	var n int64
	for _, s := range nt.Streams {
		n += int64(len(s))
		for _, a := range s {
			n += int64(a.Run)
		}
	}
	return n
}

// TotalElems sums the element touches across all streams; it is invariant
// under layout changes (only the grouping into blocks varies).
func (nt *NestTrace) TotalElems() int64 {
	var n int64
	for _, s := range nt.Streams {
		for _, a := range s {
			n += int64(a.Elems) * int64(a.Run+1)
		}
	}
	return n
}

// refInfo is the resolved per-reference state of one nest (shared,
// read-only across shard workers). strider/dir are the closed-form
// innermost-walk capability, filled once by prepStride before the shard
// workers start when every reference of the nest supports it.
type refInfo struct {
	ref  *poly.Reference
	file int32
	lay  layout.Layout

	strider layout.Strider
	dir     linalg.Vec // per-innermost-iteration data index delta
}

// Generate produces the access streams of every nest of p, in program
// order, under the given plans and layouts, using one trace-generation
// worker per available CPU. See GenerateWorkers for the output guarantee.
func Generate(p *poly.Program, plans map[*poly.LoopNest]*parallel.Plan,
	ft *FileTable, blockElems int64, threads int) ([]*NestTrace, error) {
	return GenerateWorkers(p, plans, ft, blockElems, threads, runtime.GOMAXPROCS(0))
}

// GenerateWorkers is Generate with an explicit worker count (1 = serial).
// The iteration space of each nest is partitioned along the parallelized
// loop u by the plan's thread blocks, and each worker emits the streams of
// its own subset of threads independently — streams are per-thread, so the
// partition is race-free by construction and the output is bit-identical
// for every worker count.
func GenerateWorkers(p *poly.Program, plans map[*poly.LoopNest]*parallel.Plan,
	ft *FileTable, blockElems int64, threads, workers int) ([]*NestTrace, error) {
	return generateWorkers(p, plans, ft, blockElems, threads, workers, nil, false)
}

// GenerateWorkersPool is GenerateWorkers with stream buffers drawn from
// pool. The caller owns the returned traces; recycling them with pool.Put
// once no reader holds them lets repeated generations (e.g. experiment
// cells) reuse the large per-thread allocations.
func GenerateWorkersPool(p *poly.Program, plans map[*poly.LoopNest]*parallel.Plan,
	ft *FileTable, blockElems int64, threads, workers int, pool *BufferPool) ([]*NestTrace, error) {
	return generateWorkers(p, plans, ft, blockElems, threads, workers, pool, false)
}

// generateWorkers is the shared implementation. forceWalk disables the
// closed-form span emitter so tests can compare it against the per-element
// walker; the two paths produce bit-identical streams by construction.
func generateWorkers(p *poly.Program, plans map[*poly.LoopNest]*parallel.Plan,
	ft *FileTable, blockElems int64, threads, workers int, pool *BufferPool, forceWalk bool) ([]*NestTrace, error) {
	if blockElems < 1 {
		return nil, fmt.Errorf("trace: blockElems must be ≥ 1")
	}
	if workers < 1 {
		workers = 1
	}
	out := make([]*NestTrace, 0, len(p.Nests))
	for ni, n := range p.Nests {
		plan := plans[n]
		if plan == nil {
			return nil, fmt.Errorf("trace: nest %d has no plan", ni)
		}
		nt := &NestTrace{Streams: make([][]Access, threads)}
		infos := make([]refInfo, len(n.Refs))
		for ri, r := range n.Refs {
			id := ft.ID(r.Array.Name)
			infos[ri] = refInfo{ref: r, file: id, lay: ft.Layouts[id]}
		}
		canStride := !forceWalk && prepStride(n, plan, infos)
		// Preallocate each thread's stream from a TotalElems-based
		// estimate: the element-touch count is trip·refs, split across
		// threads; coalescing shrinks it further, so a quarter of the
		// upper bound avoids most growth reallocations without
		// overcommitting memory on scattered access patterns.
		est := n.TripCount() * int64(len(n.Refs)) / int64(threads) / 4
		if est < 16 {
			est = 16
		}
		if est > 1<<20 {
			est = 1 << 20
		}

		shards := workers
		if shards > threads {
			shards = threads
		}
		if shards <= 1 {
			g := &shardGen{
				nest: n, ni: ni, plan: plan, infos: infos, streams: nt.Streams,
				blockElems: blockElems, shard: 0, shards: 1, prealloc: int(est),
				canStride: canStride, pool: pool,
			}
			g.run()
			if g.err != nil {
				return nil, g.err
			}
		} else {
			gens := make([]*shardGen, shards)
			var wg sync.WaitGroup
			wg.Add(shards)
			for w := 0; w < shards; w++ {
				g := &shardGen{
					nest: n, ni: ni, plan: plan, infos: infos, streams: nt.Streams,
					blockElems: blockElems, shard: w, shards: shards, prealloc: int(est),
					canStride: canStride, pool: pool,
				}
				gens[w] = g
				go func() {
					defer wg.Done()
					g.run()
				}()
			}
			wg.Wait()
			for _, g := range gens {
				if g.err != nil {
					return nil, g.err
				}
			}
		}
		out = append(out, nt)
	}
	return out, nil
}

// shardGen walks the iteration space of one nest restricted to the threads
// t with t ≡ shard (mod shards) and appends their accesses to streams[t].
// Each thread's stream is written by exactly one shard, and within a shard
// iterations are visited in lexicographic order, so the per-thread
// subsequences match the serial generation exactly.
type shardGen struct {
	nest       *poly.LoopNest
	ni         int
	plan       *parallel.Plan
	infos      []refInfo
	streams    [][]Access
	blockElems int64
	shard      int
	shards     int
	prealloc   int
	canStride  bool
	pool       *BufferPool
	dsts       []linalg.Vec
	segs       [][]layout.Seg
	curs       []refCursor
	groups     []blockQuantum
	win        []Access
	err        error
}

func (g *shardGen) run() {
	// A panic inside a shard goroutine (e.g. an iteration value outside
	// the plan's rectangular bounds) would kill the whole process;
	// surface it as a generation error instead.
	defer func() {
		if p := recover(); p != nil {
			g.err = fmt.Errorf("trace: nest %d generation panicked: %v", g.ni, p)
		}
	}()
	// Per-worker scratch vectors, reused across every iteration.
	g.dsts = make([]linalg.Vec, len(g.infos))
	for ri, inf := range g.infos {
		g.dsts[ri] = make(linalg.Vec, inf.ref.Array.Rank())
	}
	if g.canStride {
		g.segs = make([][]layout.Seg, len(g.infos))
		g.curs = make([]refCursor, len(g.infos))
		g.groups = make([]blockQuantum, len(g.infos))
	}
	iv := make(linalg.Vec, g.nest.Depth())
	g.walk(0, iv)
}

func (g *shardGen) walk(depth int, iv linalg.Vec) {
	if g.err != nil {
		return
	}
	if g.canStride && depth == g.nest.Depth()-1 {
		g.emitSpan(iv)
		return
	}
	if depth == g.nest.Depth() {
		g.emit(iv)
		return
	}
	l := g.nest.Loops[depth]
	lo, hi := g.nest.Bounds(depth, iv[:depth])
	step := l.Step
	if step <= 0 {
		step = 1
	}
	if depth == g.plan.U && g.shards > 1 {
		// Partition point: only descend into iterations whose thread
		// block belongs to this shard.
		for v := lo; v <= hi; v += step {
			if g.plan.ThreadOf(v)%g.shards != g.shard {
				continue
			}
			iv[depth] = v
			g.walk(depth+1, iv)
		}
		return
	}
	for v := lo; v <= hi; v += step {
		iv[depth] = v
		g.walk(depth+1, iv)
	}
}

func (g *shardGen) emit(iv linalg.Vec) {
	th := g.plan.ThreadOf(iv[g.plan.U])
	stream := g.streams[th]
	for ri := range g.infos {
		inf := &g.infos[ri]
		dst := g.dsts[ri]
		inf.ref.EvalInto(iv, dst)
		if !inf.ref.Array.Contains(dst) {
			g.err = fmt.Errorf("trace: nest %d ref %s accesses %v outside %v at iteration %v",
				g.ni, inf.ref, dst, inf.ref.Array.Dims, iv)
			return
		}
		blk := inf.lay.Offset(dst) / g.blockElems
		if ln := len(stream); ln > 0 && stream[ln-1].File == inf.file && stream[ln-1].Block == blk {
			stream[ln-1].Elems++ // coalesce consecutive same-block accesses
			continue
		}
		if stream == nil {
			stream = g.newStream()
		}
		stream = append(stream, Access{File: inf.file, Block: blk, Elems: 1})
	}
	g.streams[th] = stream
}
