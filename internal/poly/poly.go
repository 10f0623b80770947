// Package poly implements the polyhedral program representation used by the
// file-layout optimizer (paper §3): rectangular-with-affine-bounds loop
// nests, disk-resident arrays, and affine array references a = Q·i + q.
package poly

import (
	"fmt"
	"strings"

	"flopt/internal/linalg"
)

// Affine is an affine expression over the iterators of the enclosing loops:
// value(i) = Coeffs·i + Const. Coeffs has one entry per enclosing loop, from
// outermost to innermost; a shorter Coeffs slice is implicitly
// zero-extended, so purely constant bounds may use a nil Coeffs.
type Affine struct {
	Coeffs linalg.Vec
	Const  int64
}

// Constant returns an Affine holding the constant c.
func Constant(c int64) Affine { return Affine{Const: c} }

// Eval evaluates the expression at iteration point iv (outer iterators
// first). iv may be longer than Coeffs; extra iterators have coefficient 0.
func (a Affine) Eval(iv linalg.Vec) int64 {
	v := a.Const
	for k, c := range a.Coeffs {
		if k >= len(iv) {
			break
		}
		v += c * iv[k]
	}
	return v
}

// IsConstant reports whether the expression has no iterator dependence.
func (a Affine) IsConstant() bool {
	for _, c := range a.Coeffs {
		if c != 0 {
			return false
		}
	}
	return true
}

// String renders the expression using iterator names i1, i2, ….
func (a Affine) String() string {
	var parts []string
	for k, c := range a.Coeffs {
		if c == 0 {
			continue
		}
		switch c {
		case 1:
			parts = append(parts, fmt.Sprintf("i%d", k+1))
		case -1:
			parts = append(parts, fmt.Sprintf("-i%d", k+1))
		default:
			parts = append(parts, fmt.Sprintf("%d*i%d", c, k+1))
		}
	}
	if a.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", a.Const))
	}
	return strings.Join(parts, "+")
}

// Loop is one level of a loop nest with inclusive bounds.
type Loop struct {
	Name  string
	Lower Affine
	Upper Affine
	Step  int64 // must be ≥ 1; 0 is normalized to 1
}

func (l Loop) step() int64 {
	if l.Step <= 0 {
		return 1
	}
	return l.Step
}

// Array is a disk-resident multi-dimensional array. Extents are per
// dimension; the data space is [0, Dims[k]) in each dimension k.
type Array struct {
	Name string
	Dims []int64
}

// Rank returns the dimensionality of the array.
func (a *Array) Rank() int { return len(a.Dims) }

// Size returns the total number of elements.
func (a *Array) Size() int64 {
	n := int64(1)
	for _, d := range a.Dims {
		n *= d
	}
	return n
}

// Contains reports whether index vector v lies inside the data space.
func (a *Array) Contains(v linalg.Vec) bool {
	if len(v) != len(a.Dims) {
		return false
	}
	for k, x := range v {
		if x < 0 || x >= a.Dims[k] {
			return false
		}
	}
	return true
}

func (a *Array) String() string {
	var b strings.Builder
	b.WriteString(a.Name)
	for _, d := range a.Dims {
		fmt.Fprintf(&b, "[%d]", d)
	}
	return b.String()
}

// Reference is an affine array reference a = Q·i + Offset appearing in a
// loop nest. Q has one row per array dimension and one column per loop of
// the enclosing nest.
type Reference struct {
	Array  *Array
	Q      *linalg.Mat
	Offset linalg.Vec
	Write  bool
}

// Eval returns the data index vector accessed at iteration point iv.
func (r *Reference) Eval(iv linalg.Vec) linalg.Vec {
	v := r.Q.MulVec(iv)
	for k := range v {
		v[k] += r.Offset[k]
	}
	return v
}

// EvalInto evaluates the reference at iv, writing the data index vector
// into dst (which must have length equal to the array rank). It avoids the
// per-call allocation of Eval for trace-generation hot loops.
func (r *Reference) EvalInto(iv, dst linalg.Vec) {
	for d := 0; d < r.Q.R; d++ {
		v := r.Offset[d]
		for k := 0; k < r.Q.C; k++ {
			if c := r.Q.At(d, k); c != 0 {
				v += c * iv[k]
			}
		}
		dst[d] = v
	}
}

// String renders the reference like A[i1+1][i2].
func (r *Reference) String() string {
	var b strings.Builder
	b.WriteString(r.Array.Name)
	for d := 0; d < r.Q.R; d++ {
		b.WriteString("[")
		b.WriteString(Affine{Coeffs: r.Q.Row(d), Const: r.Offset[d]}.String())
		b.WriteString("]")
	}
	return b.String()
}

// LoopNest is a perfectly nested affine loop nest with a set of array
// references in its body. ParallelLoop is the index (0-based, outermost
// first) of the loop whose iterations are blocked and distributed across
// threads — the loop `u` of paper §3.
type LoopNest struct {
	Loops        []Loop
	Refs         []*Reference
	ParallelLoop int
}

// Depth returns the nesting depth.
func (n *LoopNest) Depth() int { return len(n.Loops) }

// TripCount estimates the total number of iterations of the nest, the n_j
// quantity of Eq. (5). Affine bounds are estimated by evaluating at the
// midpoint of the enclosing loops, which is exact for rectangular nests and
// a good estimate for triangular ones.
func (n *LoopNest) TripCount() int64 {
	total := int64(1)
	mid := make(linalg.Vec, 0, len(n.Loops))
	for _, l := range n.Loops {
		lo, hi := l.Lower.Eval(mid), l.Upper.Eval(mid)
		trip := (hi-lo)/l.step() + 1
		if trip < 1 {
			trip = 1
		}
		total *= trip
		mid = append(mid, (lo+hi)/2)
	}
	return total
}

// ForEach enumerates every iteration point of the nest in lexicographic
// order, invoking f with a reused iteration vector (outermost iterator
// first). f must not retain the vector across calls.
func (n *LoopNest) ForEach(f func(iv linalg.Vec)) {
	iv := make(linalg.Vec, len(n.Loops))
	n.forEachFrom(0, iv, f)
}

func (n *LoopNest) forEachFrom(depth int, iv linalg.Vec, f func(iv linalg.Vec)) {
	if depth == len(n.Loops) {
		f(iv)
		return
	}
	l := n.Loops[depth]
	lo, hi := l.Lower.Eval(iv[:depth]), l.Upper.Eval(iv[:depth])
	for v := lo; v <= hi; v += l.step() {
		iv[depth] = v
		n.forEachFrom(depth+1, iv, f)
	}
}

// Bounds returns the (constant-evaluated) inclusive bounds of loop k with
// outer iterators fixed at outer.
func (n *LoopNest) Bounds(k int, outer linalg.Vec) (lo, hi int64) {
	return n.Loops[k].Lower.Eval(outer), n.Loops[k].Upper.Eval(outer)
}

// Program is a whole application: its disk-resident arrays and the
// parallelized loop nests that access them.
type Program struct {
	Name   string
	Arrays []*Array
	Nests  []*LoopNest
}

// Array returns the array with the given name, or nil.
func (p *Program) Array(name string) *Array {
	for _, a := range p.Arrays {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RefsTo returns every reference to array a across all nests, paired with
// the nest that contains it.
func (p *Program) RefsTo(a *Array) []RefInNest {
	var out []RefInNest
	for _, n := range p.Nests {
		for _, r := range n.Refs {
			if r.Array == a {
				out = append(out, RefInNest{Ref: r, Nest: n})
			}
		}
	}
	return out
}

// RefInNest pairs a reference with its enclosing nest.
type RefInNest struct {
	Ref  *Reference
	Nest *LoopNest
}

// Validate checks structural invariants: reference shapes match their nest
// and array, parallel loop indices are in range, bounds coefficient vectors
// do not reach forward. It returns the first problem found.
func (p *Program) Validate() error {
	for ni, n := range p.Nests {
		if n.Depth() == 0 {
			return fmt.Errorf("nest %d: empty loop nest", ni)
		}
		if n.ParallelLoop < 0 || n.ParallelLoop >= n.Depth() {
			return fmt.Errorf("nest %d: parallel loop %d out of range [0,%d)", ni, n.ParallelLoop, n.Depth())
		}
		for k, l := range n.Loops {
			if len(l.Lower.Coeffs) > k || len(l.Upper.Coeffs) > k {
				return fmt.Errorf("nest %d loop %d (%s): bound depends on non-enclosing iterator", ni, k, l.Name)
			}
		}
		for ri, r := range n.Refs {
			if r.Array == nil {
				return fmt.Errorf("nest %d ref %d: nil array", ni, ri)
			}
			if r.Q.R != r.Array.Rank() {
				return fmt.Errorf("nest %d ref %d (%s): access matrix has %d rows, array rank %d",
					ni, ri, r.Array.Name, r.Q.R, r.Array.Rank())
			}
			if r.Q.C != n.Depth() {
				return fmt.Errorf("nest %d ref %d (%s): access matrix has %d cols, nest depth %d",
					ni, ri, r.Array.Name, r.Q.C, n.Depth())
			}
			if len(r.Offset) != r.Array.Rank() {
				return fmt.Errorf("nest %d ref %d (%s): offset length %d, array rank %d",
					ni, ri, r.Array.Name, len(r.Offset), r.Array.Rank())
			}
		}
	}
	return nil
}

// Hyperplane is an affine hyperplane g·b = c in an iteration or data space.
type Hyperplane struct {
	Normal linalg.Vec
	C      int64
}

// Contains reports whether point b lies on the hyperplane.
func (h Hyperplane) Contains(b linalg.Vec) bool { return h.Normal.Dot(b) == h.C }

// DeleteRow returns the (n-1)×n matrix E_u obtained from the n×n identity
// by deleting row u (paper §4.1): its rows span the solutions of h_I·Δ = 0
// for h_I the u-th unit normal.
func DeleteRow(n, u int) *linalg.Mat {
	e := linalg.NewMat(n-1, n)
	row := 0
	for i := 0; i < n; i++ {
		if i == u {
			continue
		}
		e.Set(row, i, 1)
		row++
	}
	return e
}
