package matrix

import (
	"errors"
	"fmt"
)

// ErrSingular is returned when Gaussian elimination meets a zero (or,
// with pivoting, an all-zero column) pivot.
var ErrSingular = errors.New("matrix: singular matrix")

// LU performs an in-place LU factorization of the square matrix a
// without pivoting: on return the strict lower triangle of a holds L
// (unit diagonal implied) and the upper triangle holds U. This is the
// Gaussian-elimination kernel the paper uses for opLU; it assumes the
// input needs no pivoting (e.g. diagonally dominant).
func LU(a *Dense) error {
	n := checkSquare(a, "LU")
	for k := 0; k < n; k++ {
		akk := a.At(k, k)
		if akk == 0 {
			return fmt.Errorf("%w: zero pivot at %d", ErrSingular, k)
		}
		for i := k + 1; i < n; i++ {
			lik := a.At(i, k) / akk
			a.Set(i, k, lik)
			ai, ak := a.Row(i), a.Row(k)
			for j := k + 1; j < n; j++ {
				ai[j] -= lik * ak[j]
			}
		}
	}
	return nil
}

// LUPanel factors an r×c panel (r >= c) in place: a sequence of Gaussian
// eliminations on the tall matrix formed by A00 stacked on A10 (step 1 of
// the block algorithm). On return columns 0..c-1 hold L00/L10 below the
// diagonal and U00 on and above it.
func LUPanel(a *Dense) error {
	r, c := a.Dims()
	if r < c {
		panic(fmt.Sprintf("matrix: LUPanel %dx%d has more columns than rows", r, c))
	}
	for k := 0; k < c; k++ {
		akk := a.At(k, k)
		if akk == 0 {
			return fmt.Errorf("%w: zero pivot at %d", ErrSingular, k)
		}
		for i := k + 1; i < r; i++ {
			lik := a.At(i, k) / akk
			a.Set(i, k, lik)
			ai, ak := a.Row(i), a.Row(k)
			for j := k + 1; j < c; j++ {
				ai[j] -= lik * ak[j]
			}
		}
	}
	return nil
}

// BlockLU performs the right-looking block LU factorization of Section
// 5.1.1 in place with block size b: for each iteration t it factors the
// panel (opLU + opL fused as LUPanel), solves for the U row block (opU),
// and updates the trailing submatrix (opMM + opMS). It is the sequential
// reference for the distributed hybrid design.
func BlockLU(a *Dense, b int) error {
	n := checkSquare(a, "BlockLU")
	if b <= 0 {
		panic("matrix: BlockLU block size must be positive")
	}
	for t := 0; t < n; t += b {
		nb := min(b, n-t)
		panel := a.View(t, t, n-t, nb)
		if err := LUPanel(panel); err != nil {
			return fmt.Errorf("iteration %d: %w", t/b, err)
		}
		if t+nb >= n {
			break
		}
		l00 := a.View(t, t, nb, nb)
		u01 := a.View(t, t+nb, nb, n-t-nb)
		TrsmLowerUnitLeft(l00, u01) // opU
		l10 := a.View(t+nb, t, n-t-nb, nb)
		a11 := a.View(t+nb, t+nb, n-t-nb, n-t-nb)
		Gemm(-1, l10, u01, 1, a11) // opMM + opMS fused
	}
	return nil
}

// ExtractLU splits an in-place factorization into explicit L (unit lower
// triangular) and U (upper triangular) matrices.
func ExtractLU(a *Dense) (l, u *Dense) {
	n := checkSquare(a, "ExtractLU")
	l, u = New(n, n), New(n, n)
	for i := 0; i < n; i++ {
		l.Set(i, i, 1)
		for j := 0; j < i; j++ {
			l.Set(i, j, a.At(i, j))
		}
		for j := i; j < n; j++ {
			u.Set(i, j, a.At(i, j))
		}
	}
	return l, u
}
