package matrix

// BellmanFord computes single-source shortest distances from src over
// the adjacency matrix adj (Inf = absent edge). It is an independent
// O(n³) oracle for the Floyd-Warshall implementations; it returns the
// distance vector.
func BellmanFord(adj *Dense, src int) []float64 {
	n := checkSquare(adj, "BellmanFord")
	distv := make([]float64, n)
	for i := range distv {
		distv[i] = Inf
	}
	distv[src] = 0
	for round := 0; round < n-1; round++ {
		changed := false
		for u := 0; u < n; u++ {
			du := distv[u]
			if du >= Inf {
				continue
			}
			row := adj.Row(u)
			for v := 0; v < n; v++ {
				if w := row[v]; w < Inf && du+w < distv[v] {
					distv[v] = du + w
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return distv
}
