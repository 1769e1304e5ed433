package matrix

import "fmt"

// Gemm computes C = alpha*A*B + beta*C using a cache-tiled kernel.
// Dimensions must satisfy A: m×k, B: k×n, C: m×n.
func Gemm(alpha float64, a, b *Dense, beta float64, c *Dense) {
	checkGemmDims(a, b, c)
	if beta != 1 {
		scaleOrZero(c, beta)
	}
	if alpha == 0 {
		return
	}
	gemmTiledRange(alpha, a, b, c, 0, c.rows)
}

// GemmNaive computes C = alpha*A*B + beta*C with the textbook triple
// loop. It is the oracle against which the tiled kernel
// are tested.
func GemmNaive(alpha float64, a, b *Dense, beta float64, c *Dense) {
	checkGemmDims(a, b, c)
	m, k := a.Dims()
	_, n := b.Dims()
	for i := 0; i < m; i++ {
		crow := c.Row(i)
		for j := 0; j < n; j++ {
			var s float64
			for l := 0; l < k; l++ {
				s += a.At(i, l) * b.At(l, j)
			}
			crow[j] = alpha*s + beta*crow[j]
		}
	}
}

const gemmTile = 64

// gemmTiledRange accumulates alpha*A*B into rows [lo,hi) of C using an
// i-k-j loop order with square tiling; C must already be scaled by beta.
func gemmTiledRange(alpha float64, a, b *Dense, c *Dense, lo, hi int) {
	k := a.cols
	n := c.cols
	for ii := lo; ii < hi; ii += gemmTile {
		iMax := min(ii+gemmTile, hi)
		for kk := 0; kk < k; kk += gemmTile {
			kMax := min(kk+gemmTile, k)
			for jj := 0; jj < n; jj += gemmTile {
				jMax := min(jj+gemmTile, n)
				for i := ii; i < iMax; i++ {
					crow := c.data[i*c.stride : i*c.stride+n]
					arow := a.data[i*a.stride : i*a.stride+k]
					for l := kk; l < kMax; l++ {
						av := alpha * arow[l]
						if av == 0 {
							continue
						}
						brow := b.data[l*b.stride : l*b.stride+n]
						for j := jj; j < jMax; j++ {
							crow[j] += av * brow[j]
						}
					}
				}
			}
		}
	}
}

func scaleOrZero(c *Dense, beta float64) {
	if beta == 0 {
		c.Zero()
		return
	}
	c.Scale(beta)
}

func checkGemmDims(a, b, c *Dense) {
	if a.cols != b.rows || c.rows != a.rows || c.cols != b.cols {
		panic(fmt.Sprintf("matrix: gemm dimension mismatch A %dx%d, B %dx%d, C %dx%d",
			a.rows, a.cols, b.rows, b.cols, c.rows, c.cols))
	}
}

// Mul returns A*B as a fresh matrix.
func Mul(a, b *Dense) *Dense {
	c := New(a.rows, b.cols)
	Gemm(1, a, b, 0, c)
	return c
}
