package trace

import (
	"fmt"
	"math"

	"flopt/internal/layout"
	"flopt/internal/linalg"
	"flopt/internal/parallel"
	"flopt/internal/poly"
)

// This file implements closed-form emission of the innermost loop:
// instead of evaluating every reference at every iteration, the generator
// decomposes each reference's innermost-loop walk into affine segments
// (layout.Strider), advances from block boundary to block boundary in
// O(blocks touched), and emits Access entries bit-identical to the
// per-element walker's output.

// prepStride decides whether nest n's innermost loop can be emitted in
// closed form and, if so, fills each refInfo's strider/dir. The span
// emitter needs (a) a non-innermost parallel loop, so whole spans belong
// to one thread and shard partitioning stays above the span level, and
// (b) every reference strideable under its layout — mixing walked and
// strided references would interleave wrongly with stream coalescing.
func prepStride(n *poly.LoopNest, plan *parallel.Plan, infos []refInfo) bool {
	d := n.Depth()
	if d == 0 || plan.U == d-1 {
		return false
	}
	step := n.Loops[d-1].Step
	if step <= 0 {
		step = 1
	}
	for ri := range infos {
		inf := &infos[ri]
		str, ok := inf.lay.(layout.Strider)
		if !ok {
			return false
		}
		rank := inf.ref.Array.Rank()
		dir := make(linalg.Vec, rank)
		for dim := 0; dim < rank; dim++ {
			dir[dim] = inf.ref.Q.At(dim, d-1) * step
		}
		if !str.CanStride(dir) {
			return false
		}
		inf.strider, inf.dir = str, dir
	}
	return true
}

// refCursor tracks one reference's position inside its segment list while
// the span emitter sweeps the innermost iterations k = 0 … count-1.
type refCursor struct {
	segIdx  int
	segBase int64 // k of the current segment's first iteration
	blk     int64 // block at the current k
	nextK   int64 // first k at which blk changes (or the segment ends)
}

// errElemsOverflow reports a block touched more often in a row than one
// trace entry can count.
var errElemsOverflow = fmt.Errorf("a block is touched more than %d times in a row, more than a trace entry can count", math.MaxInt32)

// blockQuantum is a maximal group of adjacent references that touch the
// same (file, block) at one iteration; the walker would coalesce the group
// into `elems` consecutive element touches of that block.
type blockQuantum struct {
	file  uint16
	blk   uint32
	elems int32
}

// emitSpan emits the whole innermost loop at the outer iteration iv in
// closed form. Correctness of the two shortcuts it takes:
//
//   - Bounds checking only the span endpoints suffices: along the span the
//     data index moves by the constant vector dir per iteration, so every
//     coordinate is monotone — if both endpoints lie inside the array box,
//     every interior point does too. (On a violation the walker reports the
//     first offending iteration; here it may be an interior point while we
//     report an endpoint, but generation fails either way and the streams
//     are discarded.)
//
//   - push quanta may be emitted at any granularity: the walker's stream is
//     the RLE of the per-iteration touch sequence (ref 0 … ref m-1 at k,
//     then k+1, …), and push computes exactly the RLE of whatever touch
//     sequence its quanta expand to. Emitting one quantum per (group,
//     iteration-interval) expands to precisely the walker's sequence, so
//     the stream is bit-identical.
func (g *shardGen) emitSpan(iv linalg.Vec) {
	m := len(g.infos)
	if m == 0 {
		return
	}
	depth := g.nest.Depth() - 1
	lo, hi := g.nest.Bounds(depth, iv[:depth])
	if lo > hi {
		return
	}
	step := g.nest.Loops[depth].Step
	if step <= 0 {
		step = 1
	}
	count := (hi-lo)/step + 1
	b := g.blockElems

	// Endpoint bounds checks first (the hi end before segment decomposition
	// — AppendSegs assumes an in-array walk), then decompose from lo.
	if count > 1 {
		iv[depth] = lo + (count-1)*step
		for ri := range g.infos {
			inf := &g.infos[ri]
			inf.ref.EvalInto(iv, g.dsts[ri])
			if !inf.ref.Array.Contains(g.dsts[ri]) {
				g.err = fmt.Errorf("trace: nest %d ref %s accesses %v outside %v at iteration %v",
					g.ni, inf.ref, g.dsts[ri], inf.ref.Array.Dims, iv)
				return
			}
		}
	}
	iv[depth] = lo
	for ri := range g.infos {
		inf := &g.infos[ri]
		dst := g.dsts[ri]
		inf.ref.EvalInto(iv, dst)
		if !inf.ref.Array.Contains(dst) {
			g.err = fmt.Errorf("trace: nest %d ref %s accesses %v outside %v at iteration %v",
				g.ni, inf.ref, dst, inf.ref.Array.Dims, iv)
			return
		}
		g.segs[ri] = inf.strider.AppendSegs(g.segs[ri][:0], dst, inf.dir, count)
		seg := g.segs[ri][0]
		g.curs[ri] = refCursor{blk: seg.Start / b, nextK: nextBlockChange(seg, 0, seg.Start/b, b)}
	}

	buf := g.buf(g.plan.ThreadOf(iv[g.plan.U]))
	stream := *buf
	for k := int64(0); k < count; {
		kNext := count
		for ri := range g.curs {
			if n := g.curs[ri].nextK; n < kNext {
				kNext = n
			}
		}
		span := kNext - k
		if m == 1 {
			stream = g.push(stream, g.infos[0].file, uint32(g.curs[0].blk), span)
		} else {
			// Group adjacent references on the same (file, block); blocks
			// are constant over [k, kNext), so the walker's touch sequence
			// there is the group pattern repeated span times.
			ng := 0
			for ri := 0; ri < m; {
				f, blk := g.infos[ri].file, g.curs[ri].blk
				n := 1
				for ri+n < m && g.infos[ri+n].file == f && g.curs[ri+n].blk == blk {
					n++
				}
				g.groups[ng] = blockQuantum{file: f, blk: uint32(blk), elems: int32(n)}
				ng++
				ri += n
			}
			if ng == 1 {
				stream = g.push(stream, g.groups[0].file, g.groups[0].blk, span*int64(g.groups[0].elems))
			} else {
				stream = g.pushGroups(stream, ng, span)
			}
		}
		k = kNext
		if k >= count || g.err != nil {
			break
		}
		for ri := range g.curs {
			cur := &g.curs[ri]
			if cur.nextK > k {
				continue
			}
			seg := g.segs[ri][cur.segIdx]
			if k >= cur.segBase+seg.Count {
				cur.segBase += seg.Count
				cur.segIdx++
				seg = g.segs[ri][cur.segIdx]
			}
			cur.blk = (seg.Start + (k-cur.segBase)*seg.Stride) / b
			cur.nextK = nextBlockChange(seg, cur.segBase, cur.blk, b)
		}
	}
	*buf = stream
}

// pushGroups emits span repetitions of the current group pattern
// g.groups[:ng]. The first three repetitions go through push; if the
// second and third appended byte-identical entry windows — and the third
// left the second untouched, i.e. nothing merged across the repetition
// boundary — then by induction every further repetition appends that same
// window with the same final entry, so the remaining span-3 repetitions
// are bulk-copied instead of re-deriving the RLE push by push. Any
// boundary merge or window drift fails the comparison and the loop falls
// back to per-repetition pushes, so the output is always exactly push's.
func (g *shardGen) pushGroups(stream []Access, ng int, span int64) []Access {
	rep := int64(0)
	if span >= 5 {
		for ; rep < 2; rep++ {
			for gi := 0; gi < ng; gi++ {
				q := g.groups[gi]
				stream = g.push(stream, q.file, q.blk, int64(q.elems))
			}
		}
		base1 := len(stream)
		for gi := 0; gi < ng; gi++ {
			q := g.groups[gi]
			stream = g.push(stream, q.file, q.blk, int64(q.elems))
		}
		g.win = append(g.win[:0], stream[base1:]...)
		base2 := len(stream)
		for gi := 0; gi < ng; gi++ {
			q := g.groups[gi]
			stream = g.push(stream, q.file, q.blk, int64(q.elems))
		}
		rep = 4
		if w := g.win; len(w) > 0 && len(stream)-base2 == len(w) &&
			windowsEqual(stream[base1:base2], w) && windowsEqual(stream[base2:], w) {
			for ; rep < span; rep++ {
				stream = append(stream, w...)
			}
			return stream
		}
	}
	for ; rep < span && g.err == nil; rep++ {
		for gi := 0; gi < ng; gi++ {
			q := g.groups[gi]
			stream = g.push(stream, q.file, q.blk, int64(q.elems))
		}
	}
	return stream
}

func windowsEqual(a, b []Access) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// nextBlockChange returns the first iteration k at which the reference
// walking seg (whose first iteration is segBase) leaves block blk, clamped
// to the segment end. File offsets are non-negative, and within the
// segment blk·b ≤ offset ≤ max(Start, current offset), so both floor
// divisions have non-negative operands.
func nextBlockChange(seg layout.Seg, segBase, blk, b int64) int64 {
	end := segBase + seg.Count
	var k int64
	switch {
	case seg.Stride > 0:
		k = segBase + ((blk+1)*b-1-seg.Start)/seg.Stride + 1
	case seg.Stride < 0:
		k = segBase + (seg.Start-blk*b)/(-seg.Stride) + 1
	default:
		return end
	}
	if k > end {
		k = end
	}
	return k
}

// push appends a quantum of e consecutive element touches of (f, b) to
// the stream s, coalescing it into the last entry when that entry is the
// same block, so s stays the RLE of the touch sequence pushed so far. An
// entry whose touch count would not fit Access.Elems sets g.err, which
// stops generation and discards the streams.
func (g *shardGen) push(s []Access, f uint16, b uint32, e int64) []Access {
	if n := len(s); n > 0 && s[n-1].File == f && s[n-1].Block == b {
		e += int64(s[n-1].Elems)
		s[n-1].Elems = int32(e)
	} else {
		s = append(s, Access{Block: b, File: f, Elems: int32(e)})
	}
	if uint64(e) > math.MaxInt32 {
		g.err = errElemsOverflow
	}
	return s
}
