package matrix

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// randomSparseRef is the sort-per-row RandomSparse that the bitset walk
// replaced, kept only as the reference TestRandomSparseMatchesReference
// compares against.
func randomSparseRef(n int, density float64, rng *rand.Rand) *CSR {
	perRow := int(density*float64(n-1) + 0.5)
	rowPtr := make([]int, n+1)
	colIdx := make([]int, 0, n*(perRow+1))
	vals := make([]float64, 0, n*(perRow+1))
	cols := make([]int, 0, perRow)
	taken := make([]bool, n)
	for i := 0; i < n; i++ {
		cols = cols[:0]
		taken[i] = true // reserve the diagonal
		for len(cols) < perRow {
			j := rng.Intn(n)
			if !taken[j] {
				taken[j] = true
				cols = append(cols, j)
			}
		}
		sort.Ints(cols)
		var dom float64
		k := len(vals)
		diagAt := -1
		for _, j := range cols {
			for diagAt < 0 && j > i {
				diagAt = len(vals)
				colIdx = append(colIdx, i)
				vals = append(vals, 0)
			}
			v := 2*rng.Float64() - 1
			dom += math.Abs(v)
			colIdx = append(colIdx, j)
			vals = append(vals, v)
		}
		if diagAt < 0 {
			diagAt = len(vals)
			colIdx = append(colIdx, i)
			vals = append(vals, 0)
		}
		vals[diagAt] = dom + 1
		rowPtr[i+1] = len(vals)
		taken[i] = false
		for _, j := range colIdx[k:] {
			taken[j] = false
		}
	}
	return &CSR{rows: n, cols: n, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// TestRandomSparseMatchesReference pins RandomSparse to the sort-based
// reference: identical arrays, and the rng left at the same position,
// across bitset word boundaries and the density range. At n=100,000,
// density 1e-5 each row holds one off-diagonal, usually hundreds of
// words away from the diagonal, so the walk spans long runs of empty
// words.
func TestRandomSparseMatchesReference(t *testing.T) {
	type tc struct {
		n       int
		density float64
	}
	var cases []tc
	for _, n := range []int{1, 2, 3, 63, 64, 65, 127, 512, 2048} {
		for _, d := range []float64{0, 0.001, 0.01, 0.03, 0.1} {
			cases = append(cases, tc{n, d})
		}
		// Near-dense rows spend most draws rejecting taken columns,
		// which takes seconds at n=2048.
		if n <= 256 {
			for _, d := range []float64{0.5, 0.9, 1} {
				cases = append(cases, tc{n, d})
			}
		}
	}
	cases = append(cases, tc{100000, 1e-5})
	for _, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			gotRNG, wantRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got := RandomSparse(c.n, c.density, gotRNG)
			want := randomSparseRef(c.n, c.density, wantRNG)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d density=%g seed=%d: RandomSparse differs from the reference", c.n, c.density, seed)
			}
			if g, w := gotRNG.Int63(), wantRNG.Int63(); g != w {
				t.Fatalf("n=%d density=%g seed=%d: rng left at a different position", c.n, c.density, seed)
			}
		}
	}
}

func BenchmarkRandomSparse(b *testing.B) {
	for _, c := range []struct {
		name    string
		n       int
		density float64
	}{
		{"n=2048/d=0.1", 2048, 0.1},
		{"n=2048/d=0.01", 2048, 0.01},
		// Written out so that no case name ends in "-<digits>", which
		// perfcheck would strip as a GOMAXPROCS suffix.
		{"n=100000/d=0.00001", 100000, 1e-5},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sparseSink = RandomSparse(c.n, c.density, rng)
			}
		})
	}
}

// sparseSink keeps the benchmarked construction from being optimized
// away.
var sparseSink *CSR

// randomSparseSPDRef is the RandomSparseSPD that filled an n×n dense
// scratch and compressed it, kept only as the reference
// TestRandomSparseSPDMatchesReference compares against.
func randomSparseSPDRef(n int, density float64, rng *rand.Rand) *CSR {
	d := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if rng.Float64() < density {
				v := 2*rng.Float64() - 1
				d.Set(i, j, v)
				d.Set(j, i, v)
			}
		}
	}
	for i := 0; i < n; i++ {
		var s float64
		for _, v := range d.Row(i) {
			if v < 0 {
				s -= v
			} else {
				s += v
			}
		}
		d.Set(i, i, s+1)
	}
	return FromDense(d)
}

// TestRandomSparseSPDMatchesReference pins the direct CSR build of
// RandomSparseSPD to the dense-scratch reference: the same structure,
// bit-identical values, and the rng left at the same position.
func TestRandomSparseSPDMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 64, 300} {
		for _, density := range []float64{0, 0.01, 0.1, 0.5, 1} {
			for seed := int64(1); seed <= 3; seed++ {
				gotRNG, wantRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				got := RandomSparseSPD(n, density, gotRNG)
				want := randomSparseSPDRef(n, density, wantRNG)
				same := got.rows == want.rows && got.cols == want.cols &&
					slices.Equal(got.rowPtr, want.rowPtr) && slices.Equal(got.colIdx, want.colIdx) &&
					slices.EqualFunc(got.vals, want.vals, func(a, b float64) bool {
						return math.Float64bits(a) == math.Float64bits(b)
					})
				if !same {
					t.Fatalf("n=%d density=%g seed=%d: RandomSparseSPD differs from the reference", n, density, seed)
				}
				if g, w := gotRNG.Int63(), wantRNG.Int63(); g != w {
					t.Fatalf("n=%d density=%g seed=%d: rng left at a different position", n, density, seed)
				}
			}
		}
	}
}
