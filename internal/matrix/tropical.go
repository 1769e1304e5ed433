package matrix

import (
	"fmt"
	"math"
	"math/rand"
)

// Inf is the distance used for absent edges in shortest-path matrices.
const Inf = math.MaxFloat64 / 4

// Tropical (min,+) kernels for the blocked Floyd-Warshall algorithm of
// Section 5.2. Matrix D holds path lengths; D[i][j] is the length of the
// currently best known path i→j.
//
// Block task vocabulary (iteration t of the blocked algorithm):
//
//	op1  — FW on the diagonal block D_tt using itself.
//	op21 — update a row block D_tq using the diagonal block (pivot rows
//	       come from D_tq itself, pivot columns from D_tt).
//	op22 — update a column block D_qt using the diagonal block.
//	op3  — update an off block D_uv with the completed D_ut and D_tv;
//	       this is a pure (min,+) matrix multiply-accumulate.

// FWKernel runs the classic O(b³) Floyd-Warshall recurrence in place on
// the square block d: d[i][j] = min(d[i][j], d[i][k] + d[k][j]) over all
// pivots k. This is op1.
func FWKernel(d *Dense) {
	n := checkSquare(d, "FWKernel")
	for k := 0; k < n; k++ {
		dk := d.Row(k)
		for i := 0; i < n; i++ {
			di := d.Row(i)
			dik := di[k]
			if dik >= Inf {
				continue
			}
			for j := 0; j < n; j++ {
				if v := dik + dk[j]; v < di[j] {
					di[j] = v
				}
			}
		}
	}
}

// FWRowUpdate performs op21 in place: block is D_tq (same block-row as
// the pivot block), diag is the completed D_tt. Pivot k walks the
// diagonal block: block[i][j] = min(block[i][j], diag[i][k] + block[k][j]).
// The pivot loop must be outermost because row k of block changes as k
// advances.
func FWRowUpdate(block, diag *Dense) {
	b := checkSquare(diag, "FWRowUpdate")
	if block.rows != b {
		panic(fmt.Sprintf("matrix: FWRowUpdate block %dx%d vs diag %dx%d", block.rows, block.cols, b, b))
	}
	for k := 0; k < b; k++ {
		bk := block.Row(k)
		for i := 0; i < b; i++ {
			dik := diag.At(i, k)
			if dik >= Inf {
				continue
			}
			bi := block.Row(i)
			for j := range bi {
				if v := dik + bk[j]; v < bi[j] {
					bi[j] = v
				}
			}
		}
	}
}

// FWColUpdate performs op22 in place: block is D_qt (same block-column
// as the pivot block), diag is the completed D_tt:
// block[i][j] = min(block[i][j], block[i][k] + diag[k][j]).
func FWColUpdate(block, diag *Dense) {
	b := checkSquare(diag, "FWColUpdate")
	if block.cols != b {
		panic(fmt.Sprintf("matrix: FWColUpdate block %dx%d vs diag %dx%d", block.rows, block.cols, b, b))
	}
	for k := 0; k < b; k++ {
		dk := diag.Row(k)
		for i := 0; i < block.rows; i++ {
			bi := block.Row(i)
			bik := bi[k]
			if bik >= Inf {
				continue
			}
			for j := range bi {
				if v := bik + dk[j]; v < bi[j] {
					bi[j] = v
				}
			}
		}
	}
}

// MinPlusGemm performs op3 in place: c[i][j] = min(c[i][j], a[i][k] +
// b[k][j]) — a (min,+) matrix multiply-accumulate. a is m×k, b is k×n,
// c is m×n.
func MinPlusGemm(a, b, c *Dense) {
	if a.cols != b.rows || c.rows != a.rows || c.cols != b.cols {
		panic(fmt.Sprintf("matrix: MinPlusGemm dimension mismatch A %dx%d, B %dx%d, C %dx%d",
			a.rows, a.cols, b.rows, b.cols, c.rows, c.cols))
	}
	minPlusRange(a, b, c, 0, c.rows)
}

func minPlusRange(a, b, c *Dense, lo, hi int) {
	k := a.cols
	for i := lo; i < hi; i++ {
		ci := c.Row(i)
		ai := a.Row(i)
		for l := 0; l < k; l++ {
			ail := ai[l]
			if ail >= Inf {
				continue
			}
			bl := b.Row(l)
			for j := range ci {
				if v := ail + bl[j]; v < ci[j] {
					ci[j] = v
				}
			}
		}
	}
}

// FloydWarshall runs the unblocked O(n³) algorithm in place on the full
// distance matrix. It is the oracle for the blocked and distributed
// versions.
func FloydWarshall(d *Dense) { FWKernel(d) }

// BlockedFloydWarshall runs the blocked algorithm of [7] in place with
// block size b (b must divide n). It is the sequential reference for the
// distributed hybrid design.
func BlockedFloydWarshall(d *Dense, b int) {
	n := checkSquare(d, "BlockedFloydWarshall")
	if b <= 0 || n%b != 0 {
		panic(fmt.Sprintf("matrix: block size %d must divide n=%d", b, n))
	}
	nb := n / b
	blk := func(u, v int) *Dense { return d.View(u*b, v*b, b, b) }
	for t := 0; t < nb; t++ {
		FWKernel(blk(t, t)) // op1
		for q := 0; q < nb; q++ {
			if q == t {
				continue
			}
			FWRowUpdate(blk(t, q), blk(t, t)) // op21
			FWColUpdate(blk(q, t), blk(t, t)) // op22
		}
		for u := 0; u < nb; u++ {
			for v := 0; v < nb; v++ {
				if u == t || v == t {
					continue
				}
				MinPlusGemm(blk(u, t), blk(t, v), blk(u, v)) // op3
			}
		}
	}
}

// RandomGraph returns an n×n distance matrix for a random directed graph:
// each off-diagonal edge is present with probability density and has a
// weight uniform in [1, 10); absent edges are Inf; the diagonal is 0.
func RandomGraph(n int, density float64, rng *rand.Rand) *Dense {
	d := New(n, n)
	for i := 0; i < n; i++ {
		row := d.Row(i)
		for j := range row {
			switch {
			case i == j:
				row[j] = 0
			case rng.Float64() < density:
				row[j] = 1 + 9*rng.Float64()
			default:
				row[j] = Inf
			}
		}
	}
	return d
}
