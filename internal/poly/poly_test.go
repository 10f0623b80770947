package poly

import (
	"testing"

	"flopt/internal/linalg"
)

// matmulProgram builds the paper's Fig. 3 example: W[i,j] += X[i,k]*Y[k,j]
// over an n×n×n nest parallelized on loop i.
func matmulProgram(n int64) *Program {
	w := &Array{Name: "W", Dims: []int64{n, n}}
	x := &Array{Name: "X", Dims: []int64{n, n}}
	y := &Array{Name: "Y", Dims: []int64{n, n}}
	nest := &LoopNest{
		Loops: []Loop{
			{Name: "i", Lower: Constant(0), Upper: Constant(n - 1)},
			{Name: "j", Lower: Constant(0), Upper: Constant(n - 1)},
			{Name: "k", Lower: Constant(0), Upper: Constant(n - 1)},
		},
		ParallelLoop: 0,
	}
	nest.Refs = []*Reference{
		{Array: w, Q: linalg.MatFromRows([][]int64{{1, 0, 0}, {0, 1, 0}}), Offset: linalg.Vec{0, 0}, Write: true},
		{Array: x, Q: linalg.MatFromRows([][]int64{{1, 0, 0}, {0, 0, 1}}), Offset: linalg.Vec{0, 0}},
		{Array: y, Q: linalg.MatFromRows([][]int64{{0, 0, 1}, {0, 1, 0}}), Offset: linalg.Vec{0, 0}},
	}
	return &Program{Name: "matmul", Arrays: []*Array{w, x, y}, Nests: []*LoopNest{nest}}
}

func TestAffineEval(t *testing.T) {
	a := Affine{Coeffs: linalg.Vec{2, -1}, Const: 3}
	if got := a.Eval(linalg.Vec{5, 4}); got != 9 {
		t.Errorf("Eval = %d, want 9", got)
	}
	if got := a.Eval(linalg.Vec{5, 4, 100}); got != 9 {
		t.Errorf("Eval with extra iterators = %d, want 9", got)
	}
	if !Constant(7).IsConstant() || a.IsConstant() {
		t.Error("IsConstant wrong")
	}
}

func TestAffineString(t *testing.T) {
	cases := []struct {
		a    Affine
		want string
	}{
		{Constant(0), "0"},
		{Constant(-3), "-3"},
		{Affine{Coeffs: linalg.Vec{1}, Const: 0}, "i1"},
		{Affine{Coeffs: linalg.Vec{0, -1}, Const: 2}, "-i2+2"},
		{Affine{Coeffs: linalg.Vec{3}, Const: 0}, "3*i1"},
	}
	for _, c := range cases {
		if got := c.a.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.a, got, c.want)
		}
	}
}

func TestArrayBasics(t *testing.T) {
	a := &Array{Name: "A", Dims: []int64{4, 6}}
	if a.Rank() != 2 || a.Size() != 24 {
		t.Errorf("rank/size = %d/%d", a.Rank(), a.Size())
	}
	if !a.Contains(linalg.Vec{3, 5}) || a.Contains(linalg.Vec{4, 0}) || a.Contains(linalg.Vec{0, -1}) {
		t.Error("Contains wrong")
	}
	if a.Contains(linalg.Vec{1}) {
		t.Error("Contains accepted wrong rank")
	}
	if a.String() != "A[4][6]" {
		t.Errorf("String = %q", a.String())
	}
}

func TestReferenceEval(t *testing.T) {
	p := matmulProgram(8)
	nest := p.Nests[0]
	iv := linalg.Vec{2, 3, 5}
	if got := nest.Refs[0].Eval(iv); !got.Equal(linalg.Vec{2, 3}) {
		t.Errorf("W ref eval = %v, want (2, 3)", got)
	}
	if got := nest.Refs[1].Eval(iv); !got.Equal(linalg.Vec{2, 5}) {
		t.Errorf("X ref eval = %v, want (2, 5)", got)
	}
	if got := nest.Refs[2].Eval(iv); !got.Equal(linalg.Vec{5, 3}) {
		t.Errorf("Y ref eval = %v, want (5, 3)", got)
	}
}

func TestReferenceString(t *testing.T) {
	p := matmulProgram(8)
	if got := p.Nests[0].Refs[1].String(); got != "X[i1][i3]" {
		t.Errorf("String = %q, want X[i1][i3]", got)
	}
}

func TestTripCountRectangular(t *testing.T) {
	p := matmulProgram(10)
	if got := p.Nests[0].TripCount(); got != 1000 {
		t.Errorf("trip count = %d, want 1000", got)
	}
}

func TestTripCountTriangular(t *testing.T) {
	// for i = 0..9 { for j = i..9 } has 55 iterations; midpoint estimate
	// uses i=4 ⇒ 10·6 = 60, close to exact.
	nest := &LoopNest{
		Loops: []Loop{
			{Name: "i", Lower: Constant(0), Upper: Constant(9)},
			{Name: "j", Lower: Affine{Coeffs: linalg.Vec{1}}, Upper: Constant(9)},
		},
	}
	if got := nest.TripCount(); got != 60 {
		t.Errorf("triangular trip estimate = %d, want 60", got)
	}
	count := 0
	nest.ForEach(func(iv linalg.Vec) { count++ })
	if count != 55 {
		t.Errorf("exact enumeration = %d, want 55", count)
	}
}

func TestForEachOrderAndBounds(t *testing.T) {
	nest := &LoopNest{
		Loops: []Loop{
			{Name: "i", Lower: Constant(0), Upper: Constant(1)},
			{Name: "j", Lower: Constant(2), Upper: Constant(3)},
		},
	}
	var seen []linalg.Vec
	nest.ForEach(func(iv linalg.Vec) { seen = append(seen, iv.Clone()) })
	want := []linalg.Vec{{0, 2}, {0, 3}, {1, 2}, {1, 3}}
	if len(seen) != len(want) {
		t.Fatalf("got %d points, want %d", len(seen), len(want))
	}
	for i := range want {
		if !seen[i].Equal(want[i]) {
			t.Errorf("point %d = %v, want %v", i, seen[i], want[i])
		}
	}
	if lo, hi := nest.Bounds(1, linalg.Vec{0}); lo != 2 || hi != 3 {
		t.Errorf("Bounds = (%d, %d), want (2, 3)", lo, hi)
	}
}

func TestForEachStep(t *testing.T) {
	nest := &LoopNest{
		Loops: []Loop{{Name: "i", Lower: Constant(0), Upper: Constant(9), Step: 3}},
	}
	var vals []int64
	nest.ForEach(func(iv linalg.Vec) { vals = append(vals, iv[0]) })
	want := []int64{0, 3, 6, 9}
	if len(vals) != len(want) {
		t.Fatalf("got %v, want %v", vals, want)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("got %v, want %v", vals, want)
		}
	}
}

func TestProgramLookupAndRefs(t *testing.T) {
	p := matmulProgram(8)
	if p.Array("X") == nil || p.Array("Z") != nil {
		t.Error("Array lookup wrong")
	}
	refs := p.RefsTo(p.Array("W"))
	if len(refs) != 1 || !refs[0].Ref.Write {
		t.Errorf("RefsTo(W) = %v", refs)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	p := matmulProgram(8)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}

	bad := matmulProgram(8)
	bad.Nests[0].ParallelLoop = 9
	if bad.Validate() == nil {
		t.Error("out-of-range parallel loop accepted")
	}

	bad = matmulProgram(8)
	bad.Nests[0].Refs[0].Q = linalg.NewMat(2, 2) // wrong column count
	if bad.Validate() == nil {
		t.Error("mis-shaped access matrix accepted")
	}

	bad = matmulProgram(8)
	bad.Nests[0].Refs[0].Offset = linalg.Vec{0}
	if bad.Validate() == nil {
		t.Error("mis-sized offset accepted")
	}

	bad = matmulProgram(8)
	bad.Nests[0].Loops[0].Lower = Affine{Coeffs: linalg.Vec{1}} // self-dependent bound
	if bad.Validate() == nil {
		t.Error("forward-dependent bound accepted")
	}
}

func TestHyperplane(t *testing.T) {
	h := Hyperplane{Normal: linalg.Vec{1, -1}, C: 0}
	if !h.Contains(linalg.Vec{3, 3}) || h.Contains(linalg.Vec{3, 4}) {
		t.Error("Contains wrong")
	}
}

func TestDeleteRow(t *testing.T) {
	e := DeleteRow(3, 1)
	want := linalg.MatFromRows([][]int64{{1, 0, 0}, {0, 0, 1}})
	if !e.Equal(want) {
		t.Errorf("DeleteRow = %v, want %v", e, want)
	}
	// Every row must satisfy h_I·row = 0 for h_I = e_u.
	h := linalg.Vec{0, 1, 0}
	for i := 0; i < e.R; i++ {
		if h.Dot(e.Row(i)) != 0 {
			t.Errorf("row %d not orthogonal to h_I", i)
		}
	}
}

func TestAccessGroups(t *testing.T) {
	p := matmulProgram(10)
	// Add a second nest reusing X with the same Q but only 100 iterations,
	// plus a transposed X access in that nest.
	x := p.Array("X")
	nest2 := &LoopNest{
		Loops: []Loop{
			{Name: "i", Lower: Constant(0), Upper: Constant(9)},
			{Name: "j", Lower: Constant(0), Upper: Constant(9)},
		},
		ParallelLoop: 0,
		Refs: []*Reference{
			{Array: x, Q: linalg.MatFromRows([][]int64{{1, 0}, {0, 1}}), Offset: linalg.Vec{0, 0}},
			{Array: x, Q: linalg.MatFromRows([][]int64{{0, 1}, {1, 0}}), Offset: linalg.Vec{0, 0}},
		},
	}
	p.Nests = append(p.Nests, nest2)

	groups := AccessGroups(p, x)
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3", len(groups))
	}
	// The 3-deep nest access dominates with weight 1000.
	if groups[0].Weight != 1000 {
		t.Errorf("top group weight = %d, want 1000", groups[0].Weight)
	}
	if groups[1].Weight != 100 || groups[2].Weight != 100 {
		t.Errorf("tail group weights = %d, %d, want 100, 100", groups[1].Weight, groups[2].Weight)
	}
}

func TestAccessGroupsMergesEqualQ(t *testing.T) {
	p := matmulProgram(10)
	nest := p.Nests[0]
	x := p.Array("X")
	// Duplicate the X reference (same Q, different offset): same group.
	nest.Refs = append(nest.Refs, &Reference{
		Array:  x,
		Q:      linalg.MatFromRows([][]int64{{1, 0, 0}, {0, 0, 1}}),
		Offset: linalg.Vec{0, 1},
	})
	groups := AccessGroups(p, x)
	if len(groups) != 1 {
		t.Fatalf("got %d groups, want 1", len(groups))
	}
	if groups[0].Weight != 2000 {
		t.Errorf("weight = %d, want 2000", groups[0].Weight)
	}
	if len(groups[0].Refs) != 2 {
		t.Errorf("refs in group = %d, want 2", len(groups[0].Refs))
	}
}

func TestEvalIntoMatchesEval(t *testing.T) {
	p := matmulProgram(8)
	nest := p.Nests[0]
	dst := make(linalg.Vec, 2)
	for _, r := range nest.Refs {
		for i := int64(0); i < 8; i += 3 {
			for j := int64(0); j < 8; j += 2 {
				for k := int64(0); k < 8; k += 5 {
					iv := linalg.Vec{i, j, k}
					r.EvalInto(iv, dst)
					if !dst.Equal(r.Eval(iv)) {
						t.Fatalf("%s at %v: EvalInto %v ≠ Eval %v", r, iv, dst, r.Eval(iv))
					}
				}
			}
		}
	}
}

func TestAccessGroupsInOrderKeepsAppearance(t *testing.T) {
	p := matmulProgram(4)
	x := p.Array("X")
	// Add a heavier later group; InOrder must still list the original
	// group first while AccessGroups reorders by weight.
	nest2 := &LoopNest{
		Loops: []Loop{
			{Name: "i", Lower: Constant(0), Upper: Constant(63)},
			{Name: "j", Lower: Constant(0), Upper: Constant(63)},
			{Name: "k", Lower: Constant(0), Upper: Constant(63)},
		},
		ParallelLoop: 0,
		Refs: []*Reference{{
			Array: x, Q: linalg.MatFromRows([][]int64{{0, 1, 0}, {1, 0, 0}}), Offset: linalg.Vec{0, 0},
		}},
	}
	p.Nests = append(p.Nests, nest2)
	inOrder := AccessGroupsInOrder(p, x)
	byWeight := AccessGroups(p, x)
	if len(inOrder) != 2 || len(byWeight) != 2 {
		t.Fatalf("groups = %d/%d", len(inOrder), len(byWeight))
	}
	if inOrder[0].Weight >= inOrder[1].Weight {
		t.Fatalf("test needs the later group heavier: %d vs %d", inOrder[0].Weight, inOrder[1].Weight)
	}
	if byWeight[0].Weight < byWeight[1].Weight {
		t.Error("AccessGroups did not order by weight")
	}
}
