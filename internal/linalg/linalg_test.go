package linalg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatBasics(t *testing.T) {
	m := MatFromRows([][]int64{{1, 2}, {3, 4}})
	if m.R != 2 || m.C != 2 {
		t.Fatalf("shape = %d×%d, want 2×2", m.R, m.C)
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %d, want 3", m.At(1, 0))
	}
	m.Set(1, 0, 7)
	if m.At(1, 0) != 7 {
		t.Errorf("Set failed: At(1,0) = %d, want 7", m.At(1, 0))
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Error("Clone aliases original storage")
	}
	if !m.Row(0).Equal(Vec{1, 2}) {
		t.Errorf("Row(0) = %v", m.Row(0))
	}
	if !m.Col(1).Equal(Vec{2, 4}) {
		t.Errorf("Col(1) = %v", m.Col(1))
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	m := MatFromRows([][]int64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	if !id.Mul(m).Equal(m) || !m.Mul(id).Equal(m) {
		t.Error("identity is not multiplicative neutral")
	}
	if id.Det() != 1 {
		t.Errorf("det(I) = %d, want 1", id.Det())
	}
}

func TestMul(t *testing.T) {
	a := MatFromRows([][]int64{{1, 2}, {3, 4}})
	b := MatFromRows([][]int64{{5, 6}, {7, 8}})
	want := MatFromRows([][]int64{{19, 22}, {43, 50}})
	if got := a.Mul(b); !got.Equal(want) {
		t.Errorf("a·b = %v, want %v", got, want)
	}
}

func TestMulVecAndVecMul(t *testing.T) {
	a := MatFromRows([][]int64{{1, 0, 2}, {0, 3, 0}})
	v := Vec{1, 2, 3}
	if got := a.MulVec(v); !got.Equal(Vec{7, 6}) {
		t.Errorf("A·v = %v, want (7, 6)", got)
	}
	w := Vec{1, 2}
	if got := VecMul(w, a); !got.Equal(Vec{1, 6, 2}) {
		t.Errorf("w·A = %v, want (1, 6, 2)", got)
	}
}

func TestTranspose(t *testing.T) {
	a := MatFromRows([][]int64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.R != 3 || at.C != 2 || at.At(2, 1) != 6 {
		t.Errorf("transpose wrong: %v", at)
	}
	if !at.Transpose().Equal(a) {
		t.Error("double transpose is not identity")
	}
}

func TestHCat(t *testing.T) {
	a := MatFromRows([][]int64{{1}, {2}})
	b := MatFromRows([][]int64{{3, 4}, {5, 6}})
	got := a.HCat(b)
	want := MatFromRows([][]int64{{1, 3, 4}, {2, 5, 6}})
	if !got.Equal(want) {
		t.Errorf("HCat = %v, want %v", got, want)
	}
}

func TestDet(t *testing.T) {
	cases := []struct {
		m    *Mat
		want int64
	}{
		{MatFromRows([][]int64{{5}}), 5},
		{MatFromRows([][]int64{{1, 2}, {3, 4}}), -2},
		{MatFromRows([][]int64{{2, 0, 0}, {0, 3, 0}, {0, 0, 4}}), 24},
		{MatFromRows([][]int64{{0, 1}, {1, 0}}), -1},
		{MatFromRows([][]int64{{1, 2}, {2, 4}}), 0},
		{MatFromRows([][]int64{{0, 2, 1}, {1, 0, 0}, {3, 1, 1}}), -1},
	}
	for i, c := range cases {
		if got := c.m.Det(); got != c.want {
			t.Errorf("case %d: det = %d, want %d", i, got, c.want)
		}
	}
}

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{12, 18, 6}, {-12, 18, 6}, {12, -18, 6}, {0, 5, 5}, {5, 0, 5}, {0, 0, 0}, {7, 13, 1},
	}
	for _, c := range cases {
		if got := GCD(c.a, c.b); got != c.want {
			t.Errorf("GCD(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestExtGCDProperty(t *testing.T) {
	f := func(a, b int32) bool {
		g, x, y := ExtGCD(int64(a), int64(b))
		if g != GCD(int64(a), int64(b)) {
			return false
		}
		return int64(a)*x+int64(b)*y == g
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrimitive(t *testing.T) {
	cases := []struct{ in, want Vec }{
		{Vec{2, 4, 6}, Vec{1, 2, 3}},
		{Vec{-2, 4}, Vec{1, -2}},
		{Vec{0, 0}, Vec{0, 0}},
		{Vec{0, -3, 6}, Vec{0, 1, -2}},
		{Vec{7}, Vec{1}},
	}
	for i, c := range cases {
		if got := Primitive(c.in); !got.Equal(c.want) {
			t.Errorf("case %d: Primitive(%v) = %v, want %v", i, c.in, got, c.want)
		}
	}
}

func TestVecOps(t *testing.T) {
	v := Vec{1, -2, 3}
	if v.Dot(Vec{4, 5, 6}) != 12 {
		t.Errorf("Dot = %d, want 12", v.Dot(Vec{4, 5, 6}))
	}
	if !v.Neg().Equal(Vec{-1, 2, -3}) {
		t.Errorf("Neg = %v", v.Neg())
	}
	if !(Vec{0, 0}).IsZero() || v.IsZero() {
		t.Error("IsZero wrong")
	}
}

func TestRank(t *testing.T) {
	cases := []struct {
		m    *Mat
		want int
	}{
		{Identity(3), 3},
		{MatFromRows([][]int64{{1, 2}, {2, 4}}), 1},
		{NewMat(2, 3), 0},
		{MatFromRows([][]int64{{1, 0, 0}, {0, 1, 0}}), 2},
	}
	for i, c := range cases {
		if got := Rank(c.m); got != c.want {
			t.Errorf("case %d: rank = %d, want %d", i, got, c.want)
		}
	}
}

func TestIsUnimodular(t *testing.T) {
	if !Identity(4).IsUnimodular() {
		t.Error("I should be unimodular")
	}
	if MatFromRows([][]int64{{2, 0}, {0, 1}}).IsUnimodular() {
		t.Error("det 2 matrix reported unimodular")
	}
	if !MatFromRows([][]int64{{1, 1}, {0, 1}}).IsUnimodular() {
		t.Error("shear should be unimodular")
	}
}

// randomUnimodular builds a random unimodular matrix from elementary ops.
func randomUnimodular(rng *rand.Rand, n int) *Mat {
	m := Identity(n)
	for k := 0; k < 12; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		f := int64(rng.Intn(5) - 2)
		addRow(m, i, j, f)
	}
	return m
}

// addRow adds f times row src to row dst of m.
func addRow(m *Mat, dst, src int, f int64) {
	for c := 0; c < m.C; c++ {
		m.Set(dst, c, m.At(dst, c)+f*m.At(src, c))
	}
}

func TestInverseUnimodular(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(4)
		m := randomUnimodular(rng, n)
		inv, ok := m.InverseUnimodular()
		if !ok {
			t.Fatalf("trial %d: inverse of unimodular %v failed", trial, m)
		}
		if !m.Mul(inv).Equal(Identity(n)) || !inv.Mul(m).Equal(Identity(n)) {
			t.Fatalf("trial %d: m·m⁻¹ ≠ I for %v", trial, m)
		}
	}
}

func TestInverseSingular(t *testing.T) {
	if _, ok := MatFromRows([][]int64{{1, 2}, {2, 4}}).InverseUnimodular(); ok {
		t.Error("singular matrix reported invertible")
	}
	if _, ok := MatFromRows([][]int64{{2, 0}, {0, 1}}).InverseUnimodular(); ok {
		t.Error("non-unimodular matrix should not have integer inverse")
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on shape mismatch")
		}
	}()
	NewMat(2, 3).Mul(NewMat(2, 3))
}

func TestStringForms(t *testing.T) {
	m := MatFromRows([][]int64{{1, 2}, {3, 4}})
	if m.String() != "[1 2; 3 4]" {
		t.Errorf("Mat.String = %q", m.String())
	}
	if (Vec{1, -2}).String() != "(1, -2)" {
		t.Errorf("Vec.String = %q", Vec{1, -2}.String())
	}
}
