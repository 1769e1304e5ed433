package dist

import "fmt"

// Cyclic is the LU design's distribution over an nb×nb block grid on p
// nodes: node i stores the blocks of block-row i and block-column i,
// then row/column i+p, i+2p, ... restricted to the trailing submatrix —
// equivalently, block (u,v) belongs to the node owning min(u,v) mod p
// (the cross of rows and columns it anchors).
type Cyclic struct {
	// NB is the block-grid dimension and P the node count.
	NB, P int
}

// CheckedCyclic builds the distribution for an nb×nb grid over p
// nodes, or returns an error naming the bad geometry.
func CheckedCyclic(nb, p int) (Cyclic, error) {
	if nb < 1 || p < 1 {
		return Cyclic{}, fmt.Errorf("dist: bad cyclic geometry nb=%d p=%d", nb, p)
	}
	return Cyclic{NB: nb, P: p}, nil
}

// Owner returns the node storing block (u, v).
func (c Cyclic) Owner(u, v int) int {
	c.check(u, v)
	if v < u {
		u, v = v, u
	}
	return u % c.P
}

// check panics on out-of-range coordinates.
func (c Cyclic) check(u, v int) {
	if u < 0 || v < 0 || u >= c.NB || v >= c.NB {
		panic(fmt.Sprintf("dist: block (%d,%d) outside %dx%d grid", u, v, c.NB, c.NB))
	}
}

// UpdateOwner returns the node the paper routes opMM results to for the
// trailing update of block (u, v): t” = max{u, v} (mapped onto the p
// nodes), per Section 5.1.3.
func (c Cyclic) UpdateOwner(u, v int) int {
	c.check(u, v)
	if v > u {
		u = v
	}
	return u % c.P
}

// ColumnBlocks is the Floyd-Warshall design's distribution: node i
// stores nb/p contiguous block columns (Section 5.2.3: "P_i stores
// columns in/(bp) ... ((i+1)n/(bp))-1").
type ColumnBlocks struct {
	// NB is the number of block columns and P the node count.
	NB, P int
}

// CheckedColumnBlocks builds the distribution of nb block columns over
// p nodes, or returns an error naming the bad geometry; p must divide
// nb.
func CheckedColumnBlocks(nb, p int) (ColumnBlocks, error) {
	if nb < 1 || p < 1 || nb%p != 0 {
		return ColumnBlocks{}, fmt.Errorf("dist: bad column geometry nb=%d p=%d", nb, p)
	}
	return ColumnBlocks{NB: nb, P: p}, nil
}

// PerNode returns the block columns per node.
func (d ColumnBlocks) PerNode() int { return d.NB / d.P }

// Owner returns the node storing block column v (and with it every
// block (u, v)).
func (d ColumnBlocks) Owner(v int) int {
	if v < 0 || v >= d.NB {
		panic(fmt.Sprintf("dist: column %d outside grid of %d", v, d.NB))
	}
	return v / d.PerNode()
}
