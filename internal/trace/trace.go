// Package trace turns a parallelized program plus a set of file layouts
// into per-thread block-access streams — the input of the storage
// simulator. Consecutive accesses by one thread to the same block are
// coalesced (one cache/network transaction moves a whole block).
package trace

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"flopt/internal/layout"
	"flopt/internal/linalg"
	"flopt/internal/parallel"
	"flopt/internal/poly"
)

// Access is one block-granular read/write request: 12 bytes, one entry
// per block transaction. Elems counts how many element touches were
// coalesced into it — the simulator charges element-proportional compute
// cost from it, keeping CPU time independent of the file layout. File
// and Block are narrowed to the ranges generation checks (at most
// math.MaxUint16 arrays, fewer than 2^32 blocks per file), and so is
// Elems (at most math.MaxInt32 consecutive touches of one block).
//
// Run is always 0: every entry stands for exactly one block. It remains
// only so that readers written against the former run-compressed form,
// which counted Run+1 blocks per entry, still compile and count right.
type Access struct {
	Block uint32
	File  uint16
	Run   uint16
	Elems int32
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

// TotalAccesses counts the block transactions across all streams.
func (nt *NestTrace) TotalAccesses() int64 {
	var n int64
	for _, s := range nt.Streams {
		n += int64(len(s))
	}
	return n
}

// TotalElems sums the element touches across all streams; it is invariant
// under layout changes (only the grouping into blocks varies).
func (nt *NestTrace) TotalElems() int64 {
	var n int64
	for _, s := range nt.Streams {
		for _, a := range s {
			n += int64(a.Elems)
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
	file uint16
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
//
// Each stream grows in a scratch buffer drawn from a package-wide pool
// and is copied out at the nest's end at its exact length (len == cap),
// so the returned traces hold no growth slack and the scratch memory is
// reused by the next nest or generation.
func GenerateWorkers(p *poly.Program, plans map[*poly.LoopNest]*parallel.Plan,
	ft *FileTable, blockElems int64, threads, workers int) ([]*NestTrace, error) {
	return generateWorkers(p, plans, ft, blockElems, threads, workers, false)
}

// scratch pools the per-thread stream buffers generation appends into.
var scratch = sync.Pool{New: func() any { return new([]Access) }}

// checkRanges rejects file tables whose ids or block indices do not fit
// Access's narrowed File and Block fields.
func checkRanges(ft *FileTable, blockElems int64) error {
	if len(ft.Names) > math.MaxUint16 {
		return fmt.Errorf("trace: %d arrays exceed the limit of %d", len(ft.Names), math.MaxUint16)
	}
	for id, name := range ft.Names {
		if n := ft.Blocks(int32(id), blockElems); n > math.MaxUint32 {
			return fmt.Errorf("trace: array %s spans %d blocks of %d elements; at most %d fit a trace entry",
				name, n, blockElems, int64(math.MaxUint32))
		}
	}
	return nil
}

// generateWorkers is the shared implementation. forceWalk disables the
// closed-form span emitter so tests can compare it against the per-element
// walker; the two paths produce bit-identical streams by construction.
func generateWorkers(p *poly.Program, plans map[*poly.LoopNest]*parallel.Plan,
	ft *FileTable, blockElems int64, threads, workers int, forceWalk bool) ([]*NestTrace, error) {
	if blockElems < 1 {
		return nil, fmt.Errorf("trace: blockElems must be ≥ 1")
	}
	if err := checkRanges(ft, blockElems); err != nil {
		return nil, err
	}
	shards := max(min(workers, threads), 1)
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
			infos[ri] = refInfo{ref: r, file: uint16(id), lay: ft.Layouts[id]}
		}
		canStride := !forceWalk && prepStride(n, plan, infos)
		bufs := make([]*[]Access, threads)
		gens := make([]*shardGen, shards)
		for w := range gens {
			gens[w] = &shardGen{
				nest: n, ni: ni, plan: plan, infos: infos, streams: nt.Streams, bufs: bufs,
				blockElems: blockElems, shard: w, shards: shards, canStride: canStride,
			}
		}
		if shards == 1 {
			gens[0].run()
		} else {
			var wg sync.WaitGroup
			for _, g := range gens {
				wg.Add(1)
				go func() {
					defer wg.Done()
					g.run()
				}()
			}
			wg.Wait()
		}
		for _, g := range gens {
			if g.err != nil {
				return nil, g.err
			}
		}
		out = append(out, nt)
	}
	return out, nil
}

// shardGen walks the iteration space of one nest restricted to the threads
// t with t ≡ shard (mod shards) and appends their accesses to the scratch
// buffers bufs[t], which finish copies out into streams[t]. Each thread's
// stream is written by exactly one shard, and within a shard iterations
// are visited in lexicographic order, so the per-thread subsequences
// match the serial generation exactly.
type shardGen struct {
	nest       *poly.LoopNest
	ni         int
	plan       *parallel.Plan
	infos      []refInfo
	streams    [][]Access
	bufs       []*[]Access
	blockElems int64
	shard      int
	shards     int
	canStride  bool
	dsts       []linalg.Vec
	segs       [][]layout.Seg
	curs       []refCursor
	groups     []blockQuantum
	win        []Access
	err        error
}

func (g *shardGen) run() {
	defer g.finish()
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
	if g.err == errElemsOverflow {
		g.err = fmt.Errorf("trace: nest %d: %w", g.ni, g.err)
	}
}

// buf returns thread th's scratch buffer, drawing one from the pool on
// the thread's first access in this nest.
func (g *shardGen) buf(th int) *[]Access {
	b := g.bufs[th]
	if b == nil {
		b = scratch.Get().(*[]Access)
		g.bufs[th] = b
	}
	return b
}

// finish copies each of the shard's streams out of its scratch buffer at
// exact length and returns the buffers to the pool. After a failure the
// streams are discarded, so only the buffers go back.
func (g *shardGen) finish() {
	for th := g.shard; th < len(g.bufs); th += g.shards {
		b := g.bufs[th]
		if b == nil {
			continue
		}
		if s := *b; g.err == nil && len(s) > 0 {
			g.streams[th] = make([]Access, len(s))
			copy(g.streams[th], s)
		}
		*b = (*b)[:0]
		scratch.Put(b)
	}
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
		for v := lo; v <= hi && g.err == nil; v += step {
			if g.plan.ThreadOf(v)%g.shards != g.shard {
				continue
			}
			iv[depth] = v
			g.walk(depth+1, iv)
		}
		return
	}
	for v := lo; v <= hi && g.err == nil; v += step {
		iv[depth] = v
		g.walk(depth+1, iv)
	}
}

func (g *shardGen) emit(iv linalg.Vec) {
	b := g.buf(g.plan.ThreadOf(iv[g.plan.U]))
	stream := *b
	for ri := range g.infos {
		inf := &g.infos[ri]
		dst := g.dsts[ri]
		inf.ref.EvalInto(iv, dst)
		if !inf.ref.Array.Contains(dst) {
			g.err = fmt.Errorf("trace: nest %d ref %s accesses %v outside %v at iteration %v",
				g.ni, inf.ref, dst, inf.ref.Array.Dims, iv)
			return
		}
		stream = g.push(stream, inf.file, uint32(inf.lay.Offset(dst)/g.blockElems), 1)
	}
	*b = stream
}
