package linalg

import "fmt"

// CompleteToUnimodular extends a primitive row vector w (gcd of components
// equal to 1) to a full unimodular matrix whose row `row` equals w. The
// remaining rows form a basis of a complementary lattice, so the result maps
// Z^n onto Z^n bijectively. It returns ok=false when w is zero or not
// primitive.
//
// The construction reduces w to a scaled unit vector by a sequence of
// elementary (unimodular) column operations while accumulating the inverse
// operations applied from the left; if w·C₁⋯C_k = e₁ then the accumulated
// matrix A = C_k⁻¹⋯C₁⁻¹ satisfies e₁·A = w, i.e. A has first row w and
// |det A| = 1.
func CompleteToUnimodular(w Vec, row int) (*Mat, bool) {
	n := len(w)
	if n == 0 || row < 0 || row >= n {
		return nil, false
	}
	if w.IsZero() || ContentOf(w) != 1 {
		return nil, false
	}
	v := w.Clone()
	acc := Identity(n)
	for j := 1; j < n; j++ {
		a, b := v[0], v[j]
		if b == 0 {
			continue
		}
		g, x, y := ExtGCD(a, b)
		// Column operation C on columns (0, j):
		//   col0' = x·col0 + y·colj,  colj' = (-b/g)·col0 + (a/g)·colj
		// reduces (a, b) to (g, 0). Its inverse, applied to rows of acc:
		//   row0' = (a/g)·row0 + (b/g)·rowj,  rowj' = -y·row0 + x·rowj.
		v[0], v[j] = g, 0
		ag, bg := a/g, b/g
		for c := 0; c < n; c++ {
			r0, rj := acc.At(0, c), acc.At(j, c)
			acc.Set(0, c, ag*r0+bg*rj)
			acc.Set(j, c, -y*r0+x*rj)
		}
	}
	if v[0] == -1 {
		// w was primitive so the accumulated gcd is ±1; fold the sign into
		// the first column operation (negate column 0, i.e. negate row 0 of
		// the inverse accumulator).
		for c := 0; c < n; c++ {
			acc.Set(0, c, -acc.At(0, c))
		}
		v[0] = 1
	}
	if v[0] != 1 {
		return nil, false
	}
	if row != 0 {
		acc.swapRows(0, row)
	}
	if !acc.Row(row).Equal(w) {
		panic(fmt.Sprintf("linalg: unimodular completion lost target row: got %v want %v", acc.Row(row), w))
	}
	return acc, true
}
