package matrix

import (
	"math/rand"
	"testing"
)

func TestFloydWarshallSmallKnown(t *testing.T) {
	// 0 ->1 (3), 1->2 (4), 0->2 (10): FW must shorten 0->2 to 7.
	d := New(3, 3)
	d.Fill(Inf)
	for i := 0; i < 3; i++ {
		d.Set(i, i, 0)
	}
	d.Set(0, 1, 3)
	d.Set(1, 2, 4)
	d.Set(0, 2, 10)
	FloydWarshall(d)
	if got := d.At(0, 2); got != 7 {
		t.Fatalf("d[0][2] = %v, want 7", got)
	}
}

func TestBlockedFWMatchesUnblocked(t *testing.T) {
	for _, tc := range []struct {
		n, b    int
		density float64
	}{{8, 2, 0.5}, {16, 4, 0.3}, {24, 8, 0.2}, {32, 8, 0.5}, {20, 4, 0.9}, {12, 12, 0.4}, {16, 4, 0.05}} {
		rng := rand.New(rand.NewSource(int64(60 + tc.n + tc.b)))
		d := RandomGraph(tc.n, tc.density, rng)
		want := d.Clone()
		FloydWarshall(want)
		got := d.Clone()
		BlockedFloydWarshall(got, tc.b)
		if !got.EqualApprox(want, 1e-12) {
			t.Fatalf("n=%d b=%d density=%g: blocked != unblocked, maxdiff %g",
				tc.n, tc.b, tc.density, got.MaxDiff(want))
		}
	}
}

func TestFWIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	d := RandomGraph(20, 0.3, rng)
	FloydWarshall(d)
	again := d.Clone()
	FloydWarshall(again)
	// Exact idempotence does not hold in floating point: a second pass
	// may re-associate a path sum and improve an entry by an ulp. It
	// must be a fixed point up to rounding.
	if !again.EqualApprox(d, 1e-12) {
		t.Fatal("FW of a shortest-path closure must be a fixed point (mod rounding)")
	}
}

func TestFWTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	d := RandomGraph(15, 0.4, rng)
	FloydWarshall(d)
	for i := 0; i < 15; i++ {
		for j := 0; j < 15; j++ {
			for k := 0; k < 15; k++ {
				if d.At(i, k) < Inf && d.At(k, j) < Inf && d.At(i, j) > d.At(i, k)+d.At(k, j)+1e-9 {
					t.Fatalf("triangle inequality violated at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

func TestFWZeroDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	d := RandomGraph(10, 0.5, rng)
	FloydWarshall(d)
	for i := 0; i < 10; i++ {
		if d.At(i, i) != 0 {
			t.Fatalf("d[%d][%d] = %v, want 0 (non-negative weights)", i, i, d.At(i, i))
		}
	}
}

func TestMinPlusGemmAgainstScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	a := RandomGraph(6, 0.7, rng)
	b := RandomGraph(6, 0.7, rng)
	c := RandomGraph(6, 0.7, rng)
	want := c.Clone()
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			best := want.At(i, j)
			for k := 0; k < 6; k++ {
				if v := a.At(i, k) + b.At(k, j); v < best {
					best = v
				}
			}
			want.Set(i, j, best)
		}
	}
	MinPlusGemm(a, b, c)
	if !c.EqualApprox(want, 1e-12) {
		t.Fatal("MinPlusGemm mismatch vs scalar oracle")
	}
}

func TestFWRowColUpdateComposition(t *testing.T) {
	// Running op1 on the diagonal and op21/op22/op3 by hand on a 2x2
	// block grid must equal the unblocked algorithm restricted to one
	// pivot block sweep followed by remaining sweeps. Easiest check:
	// full BlockedFloydWarshall equals FloydWarshall (covered above),
	// so here just verify op21/op22 respect in-place pivot ordering on
	// a crafted case where ordering matters.
	b := 2
	diag := New(b, b)
	diag.Fill(Inf)
	diag.Set(0, 0, 0)
	diag.Set(1, 1, 0)
	diag.Set(0, 1, 1)
	diag.Set(1, 0, 1)
	block := New(b, b)
	block.Fill(Inf)
	block.Set(1, 0, 5) // row 1 has a path out
	FWRowUpdate(block, diag)
	// Path: row 0 -> diag(0,1)=1 -> row 1 -> 5 gives block[0][0] = 6.
	if got := block.At(0, 0); got != 6 {
		t.Fatalf("op21 pivot propagation: block[0][0] = %v, want 6", got)
	}
	colBlock := New(b, b)
	colBlock.Fill(Inf)
	colBlock.Set(0, 1, 5)
	FWColUpdate(colBlock, diag)
	if got := colBlock.At(0, 0); got != 6 {
		t.Fatalf("op22 pivot propagation: colBlock[0][0] = %v, want 6", got)
	}
}

func TestBlockedFWBadBlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-dividing block size")
		}
	}()
	BlockedFloydWarshall(New(10, 10), 3)
}

func TestRandomGraphProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	d := RandomGraph(30, 0.5, rng)
	edges := 0
	for i := 0; i < 30; i++ {
		if d.At(i, i) != 0 {
			t.Fatal("diagonal must be zero")
		}
		for j := 0; j < 30; j++ {
			if i == j {
				continue
			}
			v := d.At(i, j)
			if v < Inf {
				edges++
				if v < 1 || v >= 10 {
					t.Fatalf("edge weight %v out of [1,10)", v)
				}
			}
		}
	}
	if edges == 0 || edges == 30*29 {
		t.Fatalf("edge count %d suggests density is not applied", edges)
	}
}
