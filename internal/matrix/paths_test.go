package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBellmanFordOracle(t *testing.T) {
	// FW distances must equal Bellman-Ford from every source — a fully
	// independent algorithm over the same graph.
	rng := rand.New(rand.NewSource(303))
	adj := RandomGraph(30, 0.25, rng)
	d := adj.Clone()
	FloydWarshall(d)
	for src := 0; src < 30; src++ {
		bf := BellmanFord(adj, src)
		for v := 0; v < 30; v++ {
			if !approxEq(d.At(src, v), bf[v], 1e-10) {
				t.Fatalf("FW vs Bellman-Ford mismatch at (%d,%d): %v vs %v", src, v, d.At(src, v), bf[v])
			}
		}
	}
}

func TestQuickBlockedFWAgainstBellmanFord(t *testing.T) {
	f := func(seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		b := 1 + rng.Intn(5)
		nb := 1 + rng.Intn(4)
		n := b * nb
		adj := RandomGraph(n, 0.2+0.6*rng.Float64(), rng)
		d := adj.Clone()
		BlockedFloydWarshall(d, b)
		src := rng.Intn(n)
		bf := BellmanFord(adj, src)
		for v := 0; v < n; v++ {
			if !approxEq(d.At(src, v), bf[v], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(304)); err != nil {
		t.Fatal(err)
	}
}
