package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// The straightforward implementations the production reduce and encode
// stages replaced. Tests compare against them; nothing else runs them.

// referenceJSON encodes r the way WriteJSON's contract is defined: a
// json.Encoder with two-space indentation.
func referenceJSON(r *Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(r)
	return buf.Bytes(), err
}

// referenceMarkPareto is the quadratic frontier scan: every feasible
// point against every other.
func referenceMarkPareto(outcomes []Outcome) []int {
	var frontier []int
	for i := range outcomes {
		if !outcomes[i].OK {
			continue
		}
		dominated := false
		for j := range outcomes {
			if i == j || !outcomes[j].OK {
				continue
			}
			if dominates(outcomes[j].objectives(), outcomes[i].objectives()) {
				dominated = true
				break
			}
		}
		if !dominated {
			outcomes[i].Pareto = true
			frontier = append(frontier, i)
		}
	}
	return frontier
}

// referenceSensitivity keys every axis on its fmt.Sprint text.
func referenceSensitivity(points []Point, outcomes []Outcome) []SensitivityTable {
	axes := []struct {
		name string
		key  func(Point) string
	}{
		{"app", func(p Point) string { return p.App }},
		{"machine", func(p Point) string { return p.Machine }},
		{"mode", func(p Point) string { return p.Mode }},
		{"nodes", func(p Point) string { return fmt.Sprint(p.Nodes) }},
		{"n", func(p Point) string { return fmt.Sprint(p.N) }},
		{"density", func(p Point) string { return fmt.Sprint(p.Density) }},
		{"b", func(p Point) string { return fmt.Sprint(p.B) }},
		{"pes", func(p Point) string { return fmt.Sprint(p.PEs) }},
		{"bf", func(p Point) string { return fmt.Sprint(p.BF) }},
		{"l", func(p Point) string { return fmt.Sprint(p.L) }},
	}
	var tables []SensitivityTable
	for _, ax := range axes {
		order := make([]string, 0, 8)
		rows := make(map[string]*SensitivityRow)
		sums := make(map[string]float64)
		for i, pt := range points {
			v := ax.key(pt)
			row, ok := rows[v]
			if !ok {
				row = &SensitivityRow{Value: v}
				rows[v] = row
				order = append(order, v)
			}
			row.Count++
			if outcomes[i].OK {
				row.OK++
				sums[v] += outcomes[i].GFLOPS
				if outcomes[i].GFLOPS > row.BestGFLOPS {
					row.BestGFLOPS = outcomes[i].GFLOPS
				}
			}
		}
		if len(order) < 2 {
			continue
		}
		t := SensitivityTable{Param: ax.name}
		for _, v := range order {
			row := rows[v]
			if row.OK > 0 {
				row.MeanGFLOPS = sums[v] / float64(row.OK)
			}
			t.Rows = append(t.Rows, *row)
		}
		tables = append(tables, t)
	}
	return tables
}
