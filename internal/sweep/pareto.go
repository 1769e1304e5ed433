package sweep

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// objectives are the three values the Pareto frontier ranks a point
// on: throughput up, FPGA area down, DRAM bandwidth demand down.
type objectives struct {
	gflops float64
	slices int
	bd     float64
}

func (o *Outcome) objectives() objectives {
	return objectives{gflops: o.GFLOPS, slices: o.Slices, bd: o.BdGBps}
}

// dominates reports whether a dominates b on the sweep objectives.
// Domination requires a to be no worse on every objective and strictly
// better on at least one, so duplicate points never eliminate each
// other.
func dominates(a, b objectives) bool {
	if a.gflops < b.gflops || a.slices > b.slices || a.bd > b.bd {
		return false
	}
	return a.gflops > b.gflops || a.slices < b.slices || a.bd < b.bd
}

// markPareto sets Outcome.Pareto on every non-dominated feasible point
// and returns their indices in ascending order (nil when there are
// none). Infeasible points never join the frontier.
//
// The feasible points are sorted by GFLOPS descending, then slices,
// then bandwidth ascending, so any dominator sorts before every point
// it dominates; as domination is transitive, a dominated point is
// always dominated by an earlier frontier member. Each point is
// therefore tested against the frontier found so far only:
// O(n log n + n·|frontier|). Exact duplicates never dominate each
// other, so both stay. The objectives of feasible outcomes are finite.
func markPareto(outcomes []Outcome) []int {
	type cand struct {
		objectives
		i int
	}
	cands := make([]cand, 0, len(outcomes))
	for i := range outcomes {
		if outcomes[i].OK {
			cands = append(cands, cand{outcomes[i].objectives(), i})
		}
	}
	slices.SortFunc(cands, func(a, b cand) int {
		return cmp.Or(cmp.Compare(b.gflops, a.gflops), cmp.Compare(a.slices, b.slices),
			cmp.Compare(a.bd, b.bd), cmp.Compare(a.i, b.i))
	})
	var front []cand
	for _, c := range cands {
		dominated := false
		for _, f := range front {
			if dominates(f.objectives, c.objectives) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, c)
		}
	}
	var frontier []int
	for _, f := range front {
		frontier = append(frontier, f.i)
	}
	slices.Sort(frontier)
	for _, i := range frontier {
		outcomes[i].Pareto = true
	}
	return frontier
}

// SensitivityTable summarizes how one grid axis moves the headline
// throughput: one row per distinct axis value, aggregated over every
// point sharing that value. Only axes with at least two distinct
// values get a table — a fixed axis has no sensitivity to report.
type SensitivityTable struct {
	// Param names the axis ("app", "machine", "mode", "nodes", "n",
	// "density", "b", "pes", "bf", "l").
	Param string `json:"param"`
	// Rows holds one aggregate per distinct axis value, in first-seen
	// (enumeration) order.
	Rows []SensitivityRow `json:"rows"`
}

// SensitivityRow aggregates every grid point sharing one axis value.
type SensitivityRow struct {
	// Value is the axis value, formatted ("xd1", "8", "-1").
	Value string `json:"value"`
	// Count is the number of grid points with this value; OK the
	// feasible subset.
	Count int `json:"count"`
	// OK counts the feasible points.
	OK int `json:"ok"`
	// BestGFLOPS is the maximum throughput over the feasible points;
	// MeanGFLOPS their average. Zero when no point was feasible.
	BestGFLOPS float64 `json:"best_gflops"`
	// MeanGFLOPS is the average feasible throughput.
	MeanGFLOPS float64 `json:"mean_gflops"`
}

// sensitivity builds one table per axis that actually varies. Rows are
// emitted in the order values first appear in the (deterministic)
// point enumeration, so the output is stable across runs and worker
// counts.
func sensitivity(points []Point, outcomes []Outcome) []SensitivityTable {
	var tables []SensitivityTable
	add := func(param string, rows []SensitivityRow) {
		if len(rows) >= 2 {
			tables = append(tables, SensitivityTable{Param: param, Rows: rows})
		}
	}
	add("app", axisRows(points, outcomes, func(p *Point) string { return p.App }))
	add("machine", axisRows(points, outcomes, func(p *Point) string { return p.Machine }))
	add("mode", axisRows(points, outcomes, func(p *Point) string { return p.Mode }))
	add("nodes", axisRows(points, outcomes, func(p *Point) int { return p.Nodes }))
	add("n", axisRows(points, outcomes, func(p *Point) int { return p.N }))
	add("density", axisRows(points, outcomes, func(p *Point) densityKey { return densityKey(math.Float64bits(p.Density)) }))
	add("b", axisRows(points, outcomes, func(p *Point) int { return p.B }))
	add("pes", axisRows(points, outcomes, func(p *Point) int { return p.PEs }))
	add("bf", axisRows(points, outcomes, func(p *Point) int { return p.BF }))
	add("l", axisRows(points, outcomes, func(p *Point) int { return p.L }))
	return tables
}

// densityKey keys the density axis on the value's bit pattern, so -0
// and 0 get separate rows, as their formatted values differ.
type densityKey uint64

func (d densityKey) String() string { return fmt.Sprint(math.Float64frombits(uint64(d))) }

// axisRows aggregates the points per distinct value of one axis, keyed
// by its typed value and formatted with fmt.Sprint once per row.
func axisRows[K comparable](points []Point, outcomes []Outcome, key func(*Point) K) []SensitivityRow {
	var (
		keys []K
		rows []SensitivityRow
		sums []float64
		r    int
	)
	for i := range points {
		k := key(&points[i])
		// In enumeration order an axis value mostly repeats or follows
		// the previous point's, so the search starts at the last row hit.
		tried := 0
		for tried < len(keys) && keys[r] != k {
			tried++
			if r++; r == len(keys) {
				r = 0
			}
		}
		if tried == len(keys) {
			r = len(keys)
			keys = append(keys, k)
			rows = append(rows, SensitivityRow{})
			sums = append(sums, 0)
		}
		row := &rows[r]
		row.Count++
		if o := &outcomes[i]; o.OK {
			row.OK++
			sums[r] += o.GFLOPS
			if o.GFLOPS > row.BestGFLOPS {
				row.BestGFLOPS = o.GFLOPS
			}
		}
	}
	for r := range rows {
		rows[r].Value = fmt.Sprint(keys[r])
		if rows[r].OK > 0 {
			rows[r].MeanGFLOPS = sums[r] / float64(rows[r].OK)
		}
	}
	return rows
}
