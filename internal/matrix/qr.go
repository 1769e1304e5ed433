package matrix

import (
	"fmt"
	"math"
)

// Householder QR factorization kernels — the third routine of the
// ScaLAPACK set the paper builds on [10]. The factored form follows
// LAPACK's geqrf convention: R occupies the upper triangle, the
// Householder vectors (unit first element implied) sit below the
// diagonal, and tau holds the reflector scales.

// QR factors the m×n matrix a (m >= n) in place and returns tau.
// Reflector k is H_k = I - tau[k]·v·vᵀ with v = [1, a[k+1:m, k]].
func QR(a *Dense) []float64 {
	m, n := a.Dims()
	if m < n {
		panic(fmt.Sprintf("matrix: QR needs m >= n, got %dx%d", m, n))
	}
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		tau[k] = HouseGen(a, k)
		HouseApply(a, k, tau[k], k+1, n)
	}
	return tau
}

// HouseGen builds the Householder reflector annihilating a[k+1:m, k]:
// it stores beta in a[k,k] and the reflector tail below (unit first
// element implied), and returns tau. Exported so distributed designs
// can drive panel factorizations step by step.
func HouseGen(a *Dense, k int) float64 {
	m := a.Rows()
	x0 := a.At(k, k)
	var sigma float64
	for i := k + 1; i < m; i++ {
		v := a.At(i, k)
		sigma += v * v
	}
	if sigma == 0 {
		// Already upper triangular in this column; H = I.
		return 0
	}
	mu := math.Sqrt(x0*x0 + sigma)
	beta := -mu
	if x0 < 0 {
		beta = mu
	}
	v0 := x0 - beta
	for i := k + 1; i < m; i++ {
		a.Set(i, k, a.At(i, k)/v0)
	}
	a.Set(k, k, beta)
	return (beta - x0) / beta
}

// HouseApply applies reflector k of a factored-in-place matrix to
// columns [cLo, cHi) of a.
func HouseApply(a *Dense, k int, tau float64, cLo, cHi int) {
	if tau == 0 {
		return
	}
	m := a.Rows()
	for j := cLo; j < cHi; j++ {
		// w = tau * v^T a[:, j] with v = [1, a[k+1:, k]].
		w := a.At(k, j)
		for i := k + 1; i < m; i++ {
			w += a.At(i, k) * a.At(i, j)
		}
		w *= tau
		a.Set(k, j, a.At(k, j)-w)
		for i := k + 1; i < m; i++ {
			a.Set(i, j, a.At(i, j)-a.At(i, k)*w)
		}
	}
}

// ApplyQT overwrites c with Qᵀ·c, where Q is the factored form in
// (qr, tau). c must have qr's row count.
func ApplyQT(qr *Dense, tau []float64, c *Dense) {
	m, n := qr.Dims()
	if c.Rows() != m {
		panic(fmt.Sprintf("matrix: ApplyQT C has %d rows for Q of %d", c.Rows(), m))
	}
	for k := 0; k < n; k++ {
		applyReflector(qr, k, tau[k], c)
	}
}

// ApplyQ overwrites c with Q·c.
func ApplyQ(qr *Dense, tau []float64, c *Dense) {
	m, n := qr.Dims()
	if c.Rows() != m {
		panic(fmt.Sprintf("matrix: ApplyQ C has %d rows for Q of %d", c.Rows(), m))
	}
	for k := n - 1; k >= 0; k-- {
		applyReflector(qr, k, tau[k], c)
	}
}

// applyReflector applies H_k (symmetric, so identical for Q and Qᵀ
// factors) to every column of c.
func applyReflector(qr *Dense, k int, tau float64, c *Dense) {
	if tau == 0 {
		return
	}
	m := qr.Rows()
	for j := 0; j < c.Cols(); j++ {
		w := c.At(k, j)
		for i := k + 1; i < m; i++ {
			w += qr.At(i, k) * c.At(i, j)
		}
		w *= tau
		c.Set(k, j, c.At(k, j)-w)
		for i := k + 1; i < m; i++ {
			c.Set(i, j, c.At(i, j)-qr.At(i, k)*w)
		}
	}
}

// QRExplicit returns explicit Q (m×n, thin) and R (n×n) from the
// factored form.
func QRExplicit(qr *Dense, tau []float64) (q, r *Dense) {
	m, n := qr.Dims()
	r = New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, qr.At(i, j))
		}
	}
	// Q = H_0 ... H_{n-1} applied to the first n columns of I.
	q = New(m, n)
	for i := 0; i < n; i++ {
		q.Set(i, i, 1)
	}
	ApplyQ(qr, tau, q)
	return q, r
}

// BlockQR performs a blocked QR factorization in place with block size
// bs: factor each panel with the unblocked kernel, then apply its
// reflectors to the trailing columns (panel by panel — the structure
// the distributed hybrid design follows). Returns tau.
func BlockQR(a *Dense, bs int) []float64 {
	m, n := a.Dims()
	if m < n {
		panic(fmt.Sprintf("matrix: BlockQR needs m >= n, got %dx%d", m, n))
	}
	if bs <= 0 {
		panic("matrix: BlockQR block size must be positive")
	}
	tau := make([]float64, n)
	for t := 0; t < n; t += bs {
		hi := min(t+bs, n)
		// Panel factorization on columns [t, hi).
		for k := t; k < hi; k++ {
			tau[k] = HouseGen(a, k)
			HouseApply(a, k, tau[k], k+1, hi)
		}
		// Trailing update: apply the panel's reflectors, in order, to
		// the columns right of the panel.
		for k := t; k < hi; k++ {
			HouseApply(a, k, tau[k], hi, n)
		}
	}
	return tau
}

// QRFlopsPanel returns the approximate flop count of factoring an
// rows×b panel: 2·rows·b².
func QRFlopsPanel(rows, b int) float64 { return 2 * float64(rows) * float64(b) * float64(b) }
