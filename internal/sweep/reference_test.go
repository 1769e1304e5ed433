package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// The straightforward implementations the production evaluate, reduce
// and encode stages replaced. Tests compare against them; nothing else runs them.

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

// referenceEvaluate is the every-point engine: one evaluation per
// point, duplicates included, one worker, in Index order.
func referenceEvaluate(method string, points []Point, ev *evaluator) []Outcome {
	outcomes := make([]Outcome, len(points))
	for i := range points {
		outcomes[i] = safeEvaluate(func() Outcome {
			return ev.evaluate(points[i], method, new(Stats))
		})
	}
	return outcomes
}

// referenceRun is Run over referenceEvaluate on a fresh evaluator.
func referenceRun(norm Grid, points []Point) *Result {
	ev := newEvaluator(0)
	outcomes := referenceEvaluate(norm.Method, points, ev)
	return reduce(norm, points, outcomes, ev.statsDelta(Stats{}))
}

// referenceRunScreened is RunScreened over referenceEvaluate on a
// fresh evaluator: the model screen of the full grid, then the refined
// candidates under the grid's method.
func referenceRunScreened(t *testing.T, g Grid, margin float64) *Result {
	t.Helper()
	norm, err := g.normalized()
	if err != nil {
		t.Fatal(err)
	}
	points := norm.Points()
	ev := newEvaluator(0)
	screened := referenceEvaluate(MethodModel, points, ev)
	markPareto(screened)
	cand, summary := selectCandidates(norm, screened, margin)
	sub := make([]Point, len(cand))
	for i, idx := range cand {
		sub[i] = points[idx]
	}
	res := reduce(norm, sub, referenceEvaluate(norm.Method, sub, ev), ev.statsDelta(Stats{}))
	res.Screen = &summary
	return res
}
