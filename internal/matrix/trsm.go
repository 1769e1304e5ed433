package matrix

import "fmt"

// Triangular solve routines. The block LU decomposition of Section 5.1
// needs two of them:
//
//   opU: U01 = inv(L00) * A01  — solve L*X = B with L lower triangular,
//        unit diagonal (TrsmLowerUnitLeft).
//   opL: L10 = A10 * inv(U00)  — solve X*U = B with U upper triangular
//        (TrsmUpperRight).
//
// TrsmUpperLeft is the back substitution the QR and property tests
// solve R*X = B with.

// TrsmLowerUnitLeft solves L*X = B in place, overwriting B with X.
// L is n×n lower triangular with an implied unit diagonal (its strict
// upper part and diagonal are not referenced); B is n×m.
func TrsmLowerUnitLeft(l, b *Dense) {
	n := checkSquare(l, "TrsmLowerUnitLeft")
	if b.rows != n {
		panic(fmt.Sprintf("matrix: TrsmLowerUnitLeft B %dx%d vs L %dx%d", b.rows, b.cols, n, n))
	}
	for i := 0; i < n; i++ {
		bi := b.Row(i)
		for k := 0; k < i; k++ {
			lik := l.At(i, k)
			if lik == 0 {
				continue
			}
			bk := b.Row(k)
			for j := range bi {
				bi[j] -= lik * bk[j]
			}
		}
	}
}

// TrsmUpperLeft solves U*X = B in place, overwriting B with X.
// U is n×n upper triangular with a non-unit diagonal; B is n×m.
func TrsmUpperLeft(u, b *Dense) {
	n := checkSquare(u, "TrsmUpperLeft")
	if b.rows != n {
		panic(fmt.Sprintf("matrix: TrsmUpperLeft B %dx%d vs U %dx%d", b.rows, b.cols, n, n))
	}
	for i := n - 1; i >= 0; i-- {
		bi := b.Row(i)
		for k := i + 1; k < n; k++ {
			uik := u.At(i, k)
			if uik == 0 {
				continue
			}
			bk := b.Row(k)
			for j := range bi {
				bi[j] -= uik * bk[j]
			}
		}
		d := u.At(i, i)
		for j := range bi {
			bi[j] /= d
		}
	}
}

// TrsmUpperRight solves X*U = B in place, overwriting B with X.
// U is n×n upper triangular with a non-unit diagonal; B is m×n.
func TrsmUpperRight(u, b *Dense) {
	n := checkSquare(u, "TrsmUpperRight")
	if b.cols != n {
		panic(fmt.Sprintf("matrix: TrsmUpperRight B %dx%d vs U %dx%d", b.rows, b.cols, n, n))
	}
	for i := 0; i < b.rows; i++ {
		bi := b.Row(i)
		for j := 0; j < n; j++ {
			s := bi[j]
			for k := 0; k < j; k++ {
				s -= bi[k] * u.At(k, j)
			}
			bi[j] = s / u.At(j, j)
		}
	}
}

func checkSquare(m *Dense, op string) int {
	if m.rows != m.cols {
		panic(fmt.Sprintf("matrix: %s: triangular factor %dx%d is not square", op, m.rows, m.cols))
	}
	return m.rows
}
