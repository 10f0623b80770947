package linalg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCompleteToUnimodularBasic(t *testing.T) {
	cases := []Vec{
		{1, 0},
		{0, 1},
		{1, 1},
		{2, 3},
		{3, -2},
		{1, 0, 0},
		{0, 0, 1},
		{2, 3, 5},
		{6, 10, 15},
		{1, -1, 1, -1},
	}
	for _, w := range cases {
		for row := 0; row < len(w); row++ {
			d, ok := CompleteToUnimodular(w, row)
			if !ok {
				t.Fatalf("CompleteToUnimodular(%v, %d) failed", w, row)
			}
			if !d.IsUnimodular() {
				t.Errorf("result not unimodular for %v: det=%d", w, d.Det())
			}
			if !d.Row(row).Equal(w) {
				t.Errorf("row %d = %v, want %v", row, d.Row(row), w)
			}
		}
	}
}

func TestCompleteToUnimodularRejects(t *testing.T) {
	if _, ok := CompleteToUnimodular(Vec{0, 0}, 0); ok {
		t.Error("zero vector accepted")
	}
	if _, ok := CompleteToUnimodular(Vec{2, 4}, 0); ok {
		t.Error("non-primitive vector accepted")
	}
	if _, ok := CompleteToUnimodular(Vec{1, 2}, 5); ok {
		t.Error("out-of-range row accepted")
	}
	if _, ok := CompleteToUnimodular(Vec{}, 0); ok {
		t.Error("empty vector accepted")
	}
}

func TestCompleteToUnimodularQuick(t *testing.T) {
	f := func(a, b, c int16, rowSeed uint8) bool {
		w := Primitive(Vec{int64(a), int64(b), int64(c)})
		if w.IsZero() {
			return true // nothing to complete
		}
		row := int(rowSeed) % 3
		d, ok := CompleteToUnimodular(w, row)
		if !ok {
			return false
		}
		return d.IsUnimodular() && d.Row(row).Equal(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// The completed matrix must be a bijection of the lattice: for random small
// integer vectors x, D⁻¹(D·x) = x.
func TestCompletionIsLatticeBijection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(3)
		w := make(Vec, n)
		for i := range w {
			w[i] = int64(rng.Intn(9) - 4)
		}
		w = Primitive(w)
		if w.IsZero() {
			continue
		}
		d, ok := CompleteToUnimodular(w, rng.Intn(n))
		if !ok {
			t.Fatalf("completion failed for %v", w)
		}
		inv, ok := d.InverseUnimodular()
		if !ok {
			t.Fatalf("inverse failed for unimodular %v", d)
		}
		x := make(Vec, n)
		for i := range x {
			x[i] = int64(rng.Intn(21) - 10)
		}
		if got := inv.MulVec(d.MulVec(x)); !got.Equal(x) {
			t.Fatalf("D⁻¹D x = %v, want %v", got, x)
		}
	}
}
